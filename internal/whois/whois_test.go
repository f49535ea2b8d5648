package whois

import (
	"errors"
	"testing"
	"time"
)

var _epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRegisterLookup(t *testing.T) {
	r := NewRegistry()
	r.Register(Record{Domain: "Evil-Site.com", Registrar: "REGRU-RU",
		Registered: _epoch, Provenance: ProvenanceFresh})
	rec, err := r.Lookup("evil-site.COM")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "REGRU-RU" || rec.Provenance != ProvenanceFresh {
		t.Errorf("rec = %+v", rec)
	}
	if _, err := r.Lookup("absent.com"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestAgeAndNewDomainWindow(t *testing.T) {
	r := NewRegistry()
	r.Register(Record{Domain: "young.com", Registered: _epoch})
	r.Register(Record{Domain: "old.com", Registered: _epoch.Add(-200 * 24 * time.Hour)})

	at := _epoch.Add(24 * 24 * time.Hour) // the paper's median lead: ~24 days
	age, err := r.Age("young.com", at)
	if err != nil {
		t.Fatal(err)
	}
	if age != 24*24*time.Hour {
		t.Errorf("age = %v", age)
	}
	isNew, err := r.IsNewDomain("young.com", at)
	if err != nil || !isNew {
		t.Errorf("young.com should still be 'new' at 24 days (within the 90-day window)")
	}
	isNew, err = r.IsNewDomain("old.com", at)
	if err != nil || isNew {
		t.Errorf("old.com must be outside the new-domain window")
	}
	if _, err := r.Age("absent.com", at); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestAdvanceRegistrationBeatsReputation(t *testing.T) {
	// The paper's core timeline finding: attackers register domains well
	// in advance, so at delivery time the domain has aged out of the
	// "new domain" reputation penalty.
	r := NewRegistry()
	delivery := _epoch.Add(300 * 24 * time.Hour)
	r.Register(Record{Domain: "patient-attacker.com",
		Registered: delivery.Add(-120 * 24 * time.Hour), Provenance: ProvenanceFresh})
	r.Register(Record{Domain: "rushed-attacker.com",
		Registered: delivery.Add(-2 * 24 * time.Hour), Provenance: ProvenanceFresh})
	patientNew, _ := r.IsNewDomain("patient-attacker.com", delivery)
	rushedNew, _ := r.IsNewDomain("rushed-attacker.com", delivery)
	if patientNew {
		t.Error("120-day-old domain must have escaped the reputation window")
	}
	if !rushedNew {
		t.Error("2-day-old domain must still be flagged new")
	}
}

func TestProvenanceNames(t *testing.T) {
	names := map[Provenance]string{
		ProvenanceFresh:         "fresh",
		ProvenanceCompromised:   "compromised",
		ProvenanceAbusedService: "abused-service",
		Provenance(9):           "unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestRussianRegistrarsList(t *testing.T) {
	if len(RussianRegistrars) != 5 {
		t.Errorf("the corpus names 5 .ru registrars, list has %d", len(RussianRegistrars))
	}
}
