package webnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crawlerbox/internal/evstore"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
)

// IPClass is the provenance class of an IP address — the attribute
// server-side cloaking and commercial WAFs key on (datacenter and
// security-vendor ranges are blocked; residential and mobile pass).
type IPClass int

// IP provenance classes.
const (
	IPResidential IPClass = iota + 1
	IPMobile
	IPDatacenter
	IPSecurityVendor
)

// String names the class.
func (c IPClass) String() string {
	switch c {
	case IPResidential:
		return "residential"
	case IPMobile:
		return "mobile"
	case IPDatacenter:
		return "datacenter"
	case IPSecurityVendor:
		return "security-vendor"
	default:
		return "unknown"
	}
}

// Errors surfaced by the network simulation.
var (
	// ErrNXDomain indicates the host has no DNS record.
	ErrNXDomain = errors.New("webnet: NXDOMAIN")
	// ErrUnreachable indicates the host resolves but nothing answers.
	ErrUnreachable = errors.New("webnet: host unreachable")
	// ErrTimeout indicates the server accepted the connection but never
	// responded (a hung or tarpitted endpoint).
	ErrTimeout = errors.New("webnet: request timed out")
	// ErrReset indicates the connection was established and then torn down
	// before a response arrived (an injected transient reset).
	ErrReset = errors.New("webnet: connection reset")
)

// Certificate is one TLS certificate record, also the CT log entry shape.
type Certificate struct {
	Host      string
	Issuer    string
	IssuedAt  time.Time
	NotAfter  time.Time
	SerialNum int
}

// Request is a simulated HTTP request.
type Request struct {
	Method   string
	Host     string
	Path     string
	RawQuery string
	Headers  map[string]string
	Body     string
	ClientIP string
	// TLSFingerprint is a JA3-style client fingerprint string; WAFs use
	// it to distinguish browser TLS stacks from tool stacks.
	TLSFingerprint string
	// Clock, when set, carries the caller's virtual clock: latency is
	// charged to it and the exchange is timestamped from it instead of the
	// Internet's shared clock. Concurrent analyses each carry their own
	// forked clock so round trips in one never advance time in another.
	Clock *Clock
	// Trace, when set, records a request span (plus a nested DNS span) for
	// this round trip. Span timestamps read the same clock the latency is
	// charged to — the per-request Clock override when present — so a
	// forked-clock visit's span timeline matches its analysis baseline.
	Trace *obs.Trace
	// Faults, when set, is the caller's per-analysis resilience session:
	// its seeded schedule may replace this round trip with a transient
	// fault (DNS flap, reset, slow start, 5xx). The draw consumes the
	// session's deterministic stream, so injected faults depend only on the
	// message seed and the analysis's own request order — never on other
	// analyses — preserving byte-identical corpus runs at any worker count.
	Faults *resilience.Session
}

// Header returns a request header (case-insensitive).
func (r *Request) Header(name string) string {
	return headerLookup(r.Headers, name)
}

// URL reassembles the absolute URL.
func (r *Request) URL() string {
	u := "https://" + r.Host + r.Path
	if r.RawQuery != "" {
		u += "?" + r.RawQuery
	}
	return u
}

// Response is a simulated HTTP response. A nil Response from a handler
// models a hung connection and surfaces as ErrTimeout.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// Header returns a response header (case-insensitive).
func (r *Response) Header(name string) string {
	return headerLookup(r.Headers, name)
}

// headerLookup finds a header value case-insensitively. An exact-case hit
// returns immediately; otherwise the folded matches are sorted so that when
// a map carries several casings of one header, the winner does not depend
// on map iteration order.
func headerLookup(headers map[string]string, name string) string {
	if v, ok := headers[name]; ok {
		return v
	}
	var matches []string
	for k := range headers {
		if strings.EqualFold(k, name) {
			matches = append(matches, k)
		}
	}
	if len(matches) == 0 {
		return ""
	}
	sort.Strings(matches)
	return headers[matches[0]]
}

// Handler serves simulated requests.
type Handler func(*Request) *Response

// Internet is the simulated network fabric.
type Internet struct {
	Clock *Clock
	// Metrics, when set, receives per-request counters and latency
	// histograms (webnet_requests_total, webnet_response_bytes_total,
	// webnet_dns_queries_total, webnet_request_latency_ns, ...). Wire it
	// before traffic flows and leave it in place: every write is a
	// commutative add, so the exported snapshot is identical for any
	// worker interleaving.
	Metrics *obs.Registry

	mu        sync.Mutex
	dns       map[string]string       // guarded by mu
	ipClass   map[string]IPClass      // guarded by mu
	ipCountry map[string]string       // guarded by mu
	banners   map[string]string       // guarded by mu
	servers   map[string]Handler      // guarded by mu
	certs     map[string]*Certificate // guarded by mu
	// queryAgg is the passive-DNS ledger: injected victim queries per
	// host-day. The crawler's own lookups are never recorded.
	queryAgg   map[string]map[string]int // guarded by mu
	nextIP     [4]int                    // guarded by mu
	nextSerial int                       // guarded by mu
	// RequestLatency is the virtual time cost of one HTTP round trip.
	RequestLatency time.Duration
	// spill, when set via SpillTrafficTo, receives one record per
	// exchange. Without it the network records no traffic.
	spill *evstore.Store // guarded by mu
}

// LoggedExchange pairs a request with its response: the record the
// network writes to its traffic store for every round trip.
type LoggedExchange struct {
	Request Request
	Status  int
	At      time.Time
}

// NewInternet returns an empty simulated internet on the given clock.
func NewInternet(clock *Clock) *Internet {
	return &Internet{
		Clock:          clock,
		dns:            map[string]string{},
		ipClass:        map[string]IPClass{},
		servers:        map[string]Handler{},
		certs:          map[string]*Certificate{},
		nextIP:         [4]int{198, 18, 0, 1},
		RequestLatency: 50 * time.Millisecond,
	}
}

// AllocateIP returns a fresh deterministic IP tagged with a class.
func (n *Internet) AllocateIP(class IPClass) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ip := fmt.Sprintf("%d.%d.%d.%d", n.nextIP[0], n.nextIP[1], n.nextIP[2], n.nextIP[3])
	n.nextIP[3]++
	if n.nextIP[3] > 254 {
		n.nextIP[3] = 1
		n.nextIP[2]++
	}
	if n.nextIP[2] > 254 {
		n.nextIP[2] = 0
		n.nextIP[1]++
	}
	n.ipClass[ip] = class
	return ip
}

// SeededIP derives a deterministic egress IP from a seed. Unlike
// AllocateIP — a shared counter whose assignment depends on allocation
// order — the address is a pure function of (class, seed), so concurrently
// analyzed messages get schedule-independent client IPs (the per-message
// seed streams key them). Each class maps to a disjoint block of the
// 100.64.0.0/10 CGNAT range, away from AllocateIP's 198.18.0.0/15 pool,
// so a cross-class seed collision can never relabel an address — which is
// also why the class needs no registration: ClassOf reads it back out of
// the block, and the ipClass map stays O(deployed hosts) instead of
// growing by one entry per analyzed message.
func (n *Internet) SeededIP(class IPClass, seed int64) string {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	second := 64 + 32*int(class-IPResidential) + int(h%32)
	third := int((h >> 8) % 256)
	fourth := 1 + int((h>>16)%254)
	return fmt.Sprintf("100.%d.%d.%d", second, third, fourth)
}

// seededClassOf inverts SeededIP's block layout: a 100.x address inside
// the seeded CGNAT blocks carries its class in the second octet. ok is
// false for every other address.
func seededClassOf(ip string) (IPClass, bool) {
	rest, found := strings.CutPrefix(ip, "100.")
	if !found {
		return 0, false
	}
	second, _, found := strings.Cut(rest, ".")
	if !found {
		return 0, false
	}
	v, err := strconv.Atoi(second)
	if err != nil || v < 64 || v >= 64+32*4 {
		return 0, false
	}
	return IPResidential + IPClass((v-64)/32), true
}

// SetBanner records a Shodan-style service banner for an IP.
func (n *Internet) SetBanner(ip, banner string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.banners == nil {
		n.banners = map[string]string{}
	}
	n.banners[ip] = banner
}

// BannerOf returns the service banner recorded for an IP, if any — the
// Shodan enrichment source of the paper's crawling phase.
func (n *Internet) BannerOf(ip string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.banners[ip]
	return b, ok
}

// SetIPCountry assigns a geolocation country code to an IP.
func (n *Internet) SetIPCountry(ip, country string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ipCountry == nil {
		n.ipCountry = map[string]string{}
	}
	n.ipCountry[ip] = country
}

// CountryOf returns the geolocation of an IP ("US" when unassigned, the
// default the ipapi-style enrichment services report for our address pool).
func (n *Internet) CountryOf(ip string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.ipCountry[ip]; ok {
		return c
	}
	return "US"
}

// ClassOf returns the provenance class of an IP (unknown IPs read as
// datacenter, the conservative default used by reputation feeds). Seeded
// egress addresses are classified structurally by their CGNAT block, so
// they never need a ledger entry.
func (n *Internet) ClassOf(ip string) IPClass {
	if c, ok := seededClassOf(ip); ok {
		return c
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.ipClass[ip]; ok {
		return c
	}
	return IPDatacenter
}

// AddDNS registers a host -> IP record.
func (n *Internet) AddDNS(host, ip string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dns[strings.ToLower(host)] = ip
}

// RemoveDNS deletes a record (site takedown).
func (n *Internet) RemoveDNS(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.dns, strings.ToLower(host))
}

// LookupDNS returns the address for host. The network keeps no record of
// lookups: the passive-DNS ledger holds only the victim traffic that
// RecordBackgroundQueries injects, so the pipeline's own resolutions never
// inflate what it is measuring.
func (n *Internet) LookupDNS(host string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ip, ok := n.dns[strings.ToLower(host)]
	return ip, ok
}

// RecordBackgroundQueries injects passive-DNS observations that did not
// originate from the crawler — the victim traffic whose volume the Umbrella
// analysis in Section V-A measures. Counts are stored as per-day aggregates
// (Umbrella itself reports aggregates), spread uniformly across the window
// ending at `until`, so even the corpus's 665-million-query outlier domain
// costs a handful of ledger entries.
func (n *Internet) RecordBackgroundQueries(host string, count int, window time.Duration, until time.Time) {
	if count <= 0 {
		return
	}
	host = strings.ToLower(host)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.queryAgg == nil {
		n.queryAgg = map[string]map[string]int{}
	}
	if n.queryAgg[host] == nil {
		n.queryAgg[host] = map[string]int{}
	}
	days := int(window / (24 * time.Hour))
	if days < 1 {
		days = 1
	}
	perDay := count / days
	rem := count % days
	at := until.Add(-window)
	for i := 0; i < days; i++ {
		c := perDay
		if i < rem {
			c++
		}
		if c > 0 {
			n.queryAgg[host][at.Format("2006-01-02")] += c
		}
		at = at.Add(24 * time.Hour)
	}
}

// sortedDays returns the map's day keys in ascending order, so volume
// summaries walk per-day counts deterministically.
func sortedDays(m map[string]int) []string {
	days := make([]string, 0, len(m))
	for day := range m {
		days = append(days, day)
	}
	sort.Strings(days)
	return days
}

// BackgroundQueryVolume summarizes passive-DNS activity for host inside
// [until-window, until]: the total of the injected background (victim)
// queries and their maximum per-day count. This is what the Umbrella join
// measures — how much real traffic a domain attracts — and, since the
// crawler's own lookups are never recorded, its result does not depend on
// what else the pipeline happened to crawl, which keeps concurrent corpus
// analyses deterministic.
func (n *Internet) BackgroundQueryVolume(host string, window time.Duration, until time.Time) (total int, maxDaily int) {
	host = strings.ToLower(host)
	since := until.Add(-window)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, day := range sortedDays(n.queryAgg[host]) {
		c := n.queryAgg[host][day]
		t, err := time.Parse("2006-01-02", day)
		if err != nil || t.Before(since.Add(-24*time.Hour)) || t.After(until) {
			continue
		}
		total += c
		if c > maxDaily {
			maxDaily = c
		}
	}
	return total, maxDaily
}

// IssueCert creates a TLS certificate for host, replacing any earlier one,
// and returns it.
func (n *Internet) IssueCert(host, issuer string, issuedAt time.Time) *Certificate {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextSerial++
	cert := &Certificate{
		Host:      strings.ToLower(host),
		Issuer:    issuer,
		IssuedAt:  issuedAt,
		NotAfter:  issuedAt.Add(90 * 24 * time.Hour),
		SerialNum: n.nextSerial,
	}
	n.certs[cert.Host] = cert
	return cert
}

// CertFor returns the most recent certificate for host, if any.
func (n *Internet) CertFor(host string) (*Certificate, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cert, ok := n.certs[strings.ToLower(host)]
	return cert, ok
}

// Serve registers a handler for a host name.
func (n *Internet) Serve(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[strings.ToLower(host)] = h
}

// Do performs one HTTP round trip: DNS resolution, server lookup, handler
// dispatch, latency accounting, and traffic logging. The round trip
// is abandoned before DNS resolution when ctx is done. Latency is charged
// to req.Clock when the request carries one, otherwise to the shared
// clock — and the request span's timeline reads that same clock, so
// forked-clock visits trace on their own analysis timeline, never the
// Internet's.
//
// When the request carries a resilience session, its seeded schedule is
// consulted first: an injected fault preempts the real exchange (a DNS flap
// surfaces before resolution; resets, slow starts, and 5xx bursts after the
// latency charge), is tagged on the request span ("fault" attribute), and
// feeds webnet_faults_injected_total.
func (n *Internet) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.Host = strings.ToLower(req.Host)
	clock := n.Clock
	if req.Clock != nil {
		clock = req.Clock
	}
	// Span names record method + host + path only: query strings can carry
	// schedule-dependent tokens, which would break trace determinism.
	span := req.Trace.StartAt(obs.SpanRequest, req.Method+" https://"+req.Host+req.Path, clock.Now())
	fault := req.Faults.Draw(req.Host)
	if fault.Kind != resilience.FaultNone {
		n.Metrics.Inc("webnet_faults_injected_total", "kind", fault.Kind.String())
		span.SetAttr("fault", fault.Kind.String())
	}
	n.Metrics.Inc("webnet_dns_queries_total")
	if fault.Kind == resilience.FaultNXDomain {
		// The flap happens at the resolver: the query never reaches the
		// zone, and the host's real record is untouched.
		dns := req.Trace.StartAt(obs.SpanDNS, "resolve "+req.Host, clock.Now())
		n.finishSpan(dns, clock, "nxdomain")
		n.finishSpan(span, clock, "nxdomain")
		return nil, fmt.Errorf("resolving %q: transient flap: %w", req.Host, ErrNXDomain)
	}
	dns := req.Trace.StartAt(obs.SpanDNS, "resolve "+req.Host, clock.Now())
	n.mu.Lock()
	_, resolved := n.dns[req.Host]
	handler, ok := n.servers[req.Host]
	latency := n.RequestLatency
	n.mu.Unlock()
	if !resolved {
		n.finishSpan(dns, clock, "nxdomain")
		n.finishSpan(span, clock, "nxdomain")
		return nil, fmt.Errorf("resolving %q: %w", req.Host, ErrNXDomain)
	}
	n.finishSpan(dns, clock, "")
	clock.Advance(latency)
	n.Metrics.Observe("webnet_request_latency_ns", float64(latency))
	switch fault.Kind {
	case resilience.FaultReset:
		n.logExchange(req, 0, clock.Now())
		n.finishSpan(span, clock, "reset")
		return nil, fmt.Errorf("connecting to %q: %w", req.Host, ErrReset)
	case resilience.FaultSlowStart:
		clock.Advance(fault.Stall)
		n.logExchange(req, 0, clock.Now())
		n.finishSpan(span, clock, "timeout")
		return nil, fmt.Errorf("waiting for %q: slow start: %w", req.Host, ErrTimeout)
	case resilience.Fault5xx:
		// The origin answers with an overload status before the handler
		// ever sees the request.
		resp := &Response{
			Status:  fault.Status,
			Headers: map[string]string{"Retry-After": "1"},
			Body:    []byte("503 service unavailable\n"),
		}
		n.logExchange(req, resp.Status, clock.Now())
		n.Metrics.Inc("webnet_requests_total", "status", statusClass(resp.Status))
		n.Metrics.Add("webnet_response_bytes_total", float64(len(resp.Body)))
		if span != nil {
			span.SetAttr("status", strconv.Itoa(resp.Status))
			span.SetAttr("bytes", strconv.Itoa(len(resp.Body)))
			span.EndAt(clock.Now())
		}
		return resp, nil
	}
	if !ok {
		n.logExchange(req, 0, clock.Now())
		n.finishSpan(span, clock, "unreachable")
		return nil, fmt.Errorf("connecting to %q: %w", req.Host, ErrUnreachable)
	}
	resp := handler(req)
	if resp == nil {
		n.logExchange(req, 0, clock.Now())
		n.finishSpan(span, clock, "timeout")
		return nil, fmt.Errorf("waiting for %q: %w", req.Host, ErrTimeout)
	}
	if resp.Headers == nil {
		resp.Headers = map[string]string{}
	}
	n.logExchange(req, resp.Status, clock.Now())
	n.Metrics.Inc("webnet_requests_total", "status", statusClass(resp.Status))
	n.Metrics.Add("webnet_response_bytes_total", float64(len(resp.Body)))
	if span != nil {
		span.SetAttr("status", strconv.Itoa(resp.Status))
		span.SetAttr("bytes", strconv.Itoa(len(resp.Body)))
		span.EndAt(clock.Now())
	}
	return resp, nil
}

// finishSpan closes a span on the request's clock; a non-empty errKind
// marks it failed and feeds the error counter. Safe on nil spans.
func (n *Internet) finishSpan(span *obs.Span, clock *Clock, errKind string) {
	if errKind != "" {
		n.Metrics.Inc("webnet_request_errors_total", "kind", errKind)
		span.SetStatus(obs.StatusError)
		span.SetAttr("error", errKind)
	}
	span.EndAt(clock.Now())
}

// statusClass buckets an HTTP status for low-cardinality metric labels.
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	case status >= 200:
		return "2xx"
	default:
		return "other"
	}
}

// logExchange appends one exchange to the traffic store, if one is
// attached, while n.mu is held, so records land in the order the exchanges
// finished. Lock order is always Internet.mu then Store.mu; the store
// never calls back into the Internet.
func (n *Internet) logExchange(req *Request, status int, at time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.spill == nil {
		return
	}
	e := LoggedExchange{Request: *req, Status: status, At: at}
	if _, err := n.spill.Append(evstore.KindExchange, encodeExchange(&e)); err != nil {
		// A failed append (disk full, store closed) drops the exchange
		// but must not take the simulated network down with it; surface
		// the loss on the metrics stream instead.
		n.Metrics.Inc("webnet_traffic_spill_errors_total")
	}
}
