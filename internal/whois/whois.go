// Package whois simulates the domain registration registry that CrawlerBox
// queries during enrichment. Each record carries the attributes the paper's
// deployment-timeline analysis joins on: registration time, registrar, and
// provenance (registered fresh by the attacker, a compromised legitimate
// domain, or an abused hosting service subdomain).
package whois

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// Provenance classifies how a phishing domain came to exist — the paper's
// outlier analysis splits its 71 long-lead domains into exactly these
// classes (42 fresh, 20 compromised small businesses, 9 abused services).
type Provenance int

// Provenance classes.
const (
	ProvenanceFresh Provenance = iota + 1
	ProvenanceCompromised
	ProvenanceAbusedService
)

// String names the provenance.
func (p Provenance) String() string {
	switch p {
	case ProvenanceFresh:
		return "fresh"
	case ProvenanceCompromised:
		return "compromised"
	case ProvenanceAbusedService:
		return "abused-service"
	default:
		return "unknown"
	}
}

// Record is one WHOIS registration entry.
type Record struct {
	Domain     string
	Registrar  string
	Registered time.Time
	Provenance Provenance
}

// ErrNotFound indicates the domain has no registration record.
var ErrNotFound = errors.New("whois: no record")

// Registry is a thread-safe in-memory WHOIS database.
type Registry struct {
	mu sync.Mutex
	// records maps lowercase registrable domain to its entry.
	records map[string]Record // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{records: map[string]Record{}}
}

// Register inserts or replaces a record.
func (r *Registry) Register(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Domain = strings.ToLower(rec.Domain)
	r.records[rec.Domain] = rec
}

// Lookup returns the record for a registrable domain.
func (r *Registry) Lookup(domain string) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[strings.ToLower(domain)]
	if !ok {
		return Record{}, ErrNotFound
	}
	return rec, nil
}

// Age returns how long the domain had been registered as of `at`.
func (r *Registry) Age(domain string, at time.Time) (time.Duration, error) {
	rec, err := r.Lookup(domain)
	if err != nil {
		return 0, err
	}
	return at.Sub(rec.Registered), nil
}

// NewDomainThreshold is the industry "new domain" reputation window the
// paper cites: domains younger than 90 days get low reputation scores.
const NewDomainThreshold = 90 * 24 * time.Hour

// IsNewDomain reports whether the domain is inside the low-reputation
// window at the given time.
func (r *Registry) IsNewDomain(domain string, at time.Time) (bool, error) {
	age, err := r.Age(domain, at)
	if err != nil {
		return false, err
	}
	return age < NewDomainThreshold, nil
}

// RussianRegistrars are the .ru registrars observed in the corpus.
var RussianRegistrars = []string{
	"REGRU-RU", "R01-RU", "RU-CENTER-RU", "REGTIME-RU", "OPENPROV-RU",
}
