package webnet

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"crawlerbox/internal/evstore"
)

var _epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func TestClock(t *testing.T) {
	c := NewClock(_epoch)
	if !c.Now().Equal(_epoch) {
		t.Fatal("clock start wrong")
	}
	c.Advance(time.Hour)
	if got := c.Now().Sub(_epoch); got != time.Hour {
		t.Errorf("after Advance: %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Now().Sub(_epoch); got != time.Hour {
		t.Errorf("negative advance must be ignored: %v", got)
	}
	c.Set(_epoch.Add(3 * time.Hour))
	if got := c.Now().Sub(_epoch); got != 3*time.Hour {
		t.Errorf("Set: %v", got)
	}
	c.Set(_epoch) // backwards jump ignored
	if got := c.Now().Sub(_epoch); got != 3*time.Hour {
		t.Errorf("backwards Set must be ignored: %v", got)
	}
}

func newNet() *Internet {
	return NewInternet(NewClock(_epoch))
}

func TestAllocateIPDistinctAndClassed(t *testing.T) {
	n := newNet()
	seen := map[string]bool{}
	for i := 0; i < 600; i++ {
		ip := n.AllocateIP(IPResidential)
		if seen[ip] {
			t.Fatalf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
	mobile := n.AllocateIP(IPMobile)
	if n.ClassOf(mobile) != IPMobile {
		t.Errorf("ClassOf(mobile) = %v", n.ClassOf(mobile))
	}
	if n.ClassOf("203.0.113.200") != IPDatacenter {
		t.Error("unknown IPs must default to datacenter")
	}
}

func TestResolveAndNXDomain(t *testing.T) {
	n := newNet()
	n.AddDNS("phish.example", "198.18.0.99")
	ip, ok := n.LookupDNS("PHISH.example")
	if !ok || ip != "198.18.0.99" {
		t.Fatalf("LookupDNS = %q, %v", ip, ok)
	}
	if _, ok := n.LookupDNS("gone.example"); ok {
		t.Error("LookupDNS of an unregistered host succeeded")
	}
	n.RemoveDNS("phish.example")
	if _, ok := n.LookupDNS("phish.example"); ok {
		t.Error("LookupDNS succeeded after RemoveDNS")
	}
	if _, err := n.Do(context.Background(), &Request{Host: "phish.example", Path: "/"}); !errors.Is(err, ErrNXDomain) {
		t.Errorf("Do after RemoveDNS: err = %v, want ErrNXDomain", err)
	}
}

// TestPassiveDNSLedger pins that the ledger counts victim traffic only:
// the crawler's own lookups and round trips never reach it.
func TestPassiveDNSLedger(t *testing.T) {
	n := newNet()
	n.AddDNS("tracked.example", "198.18.0.5")
	n.Serve("tracked.example", func(*Request) *Response { return &Response{Status: 200} })
	n.RecordBackgroundQueries("tracked.example", 2, 24*time.Hour, n.Clock.Now())
	for i := 0; i < 3; i++ {
		if _, ok := n.LookupDNS("tracked.example"); !ok {
			t.Fatal("tracked.example does not resolve")
		}
		if _, err := n.Do(context.Background(), &Request{Host: "tracked.example", Path: "/"}); err != nil {
			t.Fatal(err)
		}
		n.Clock.Advance(time.Hour)
	}
	total, maxDaily := n.BackgroundQueryVolume("tracked.example", 30*24*time.Hour, n.Clock.Now())
	if total != 2 || maxDaily != 2 {
		t.Errorf("volume = %d total, %d max daily; want the 2 injected queries", total, maxDaily)
	}
}

func TestBackgroundQueriesShapeVolume(t *testing.T) {
	n := newNet()
	until := _epoch.Add(30 * 24 * time.Hour)
	n.RecordBackgroundQueries("lowvol.example", 43, 30*24*time.Hour, until)
	n.RecordBackgroundQueries("highvol.example", 665000, 30*24*time.Hour, until)
	totalLow, maxLow := n.BackgroundQueryVolume("lowvol.example", 30*24*time.Hour, until)
	totalHigh, maxHigh := n.BackgroundQueryVolume("highvol.example", 30*24*time.Hour, until)
	if totalLow != 43 {
		t.Errorf("low total = %d", totalLow)
	}
	if totalHigh != 665000 {
		t.Errorf("high total = %d", totalHigh)
	}
	if maxLow >= maxHigh {
		t.Errorf("daily maxima not ordered: %d vs %d", maxLow, maxHigh)
	}
	// Queries outside the window are excluded.
	total, _ := n.BackgroundQueryVolume("lowvol.example", 24*time.Hour, until.Add(-20*24*time.Hour))
	if total >= 43 {
		t.Errorf("window filter ineffective: %d", total)
	}
}

func TestCertificates(t *testing.T) {
	n := newNet()
	c1 := n.IssueCert("a.example", "LetsEncrypt", _epoch)
	c2 := n.IssueCert("b.example", "LetsEncrypt", _epoch.Add(time.Hour))
	n.IssueCert("a.example", "LetsEncrypt", _epoch.Add(2*time.Hour)) // renewal
	got, ok := n.CertFor("a.example")
	if !ok || got.IssuedAt != _epoch.Add(2*time.Hour) {
		t.Errorf("CertFor returned %+v", got)
	}
	if _, ok := n.CertFor("nocert.example"); ok {
		t.Error("CertFor on unknown host should report absence")
	}
	if c1.SerialNum == c2.SerialNum {
		t.Error("serials must be unique")
	}
	if !c1.NotAfter.After(c1.IssuedAt) {
		t.Error("certificate validity window inverted")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	n := newNet()
	ip := n.AllocateIP(IPDatacenter)
	n.AddDNS("site.example", ip)
	n.Serve("site.example", func(req *Request) *Response {
		if req.Path == "/login" {
			return &Response{Status: 200, Body: []byte("<html>login</html>"),
				Headers: map[string]string{"Content-Type": "text/html"}}
		}
		return &Response{Status: 404, Body: []byte("not found")}
	})
	resp, err := n.Do(context.Background(), &Request{Method: "GET", Host: "site.example", Path: "/login", ClientIP: "10.1.1.1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "<html>login</html>" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if resp.Header("content-type") != "text/html" {
		t.Errorf("header lookup should be case-insensitive")
	}
	resp, err = n.Do(context.Background(), &Request{Method: "GET", Host: "site.example", Path: "/other", ClientIP: "10.1.1.1"})
	if err != nil || resp.Status != 404 {
		t.Errorf("404 path: %v %v", resp, err)
	}
}

func TestHTTPErrors(t *testing.T) {
	n := newNet()
	if _, err := n.Do(context.Background(), &Request{Host: "nxdomain.example", Path: "/"}); !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want NXDOMAIN", err)
	}
	n.AddDNS("deadhost.example", "198.18.1.1")
	if _, err := n.Do(context.Background(), &Request{Host: "deadhost.example", Path: "/"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want unreachable", err)
	}
	n.AddDNS("tarpit.example", "198.18.1.2")
	n.Serve("tarpit.example", func(*Request) *Response { return nil })
	if _, err := n.Do(context.Background(), &Request{Host: "tarpit.example", Path: "/"}); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestHTTPLatencyAdvancesClock(t *testing.T) {
	n := newNet()
	n.AddDNS("x.example", "198.18.1.3")
	n.Serve("x.example", func(*Request) *Response { return &Response{Status: 200} })
	before := n.Clock.Now()
	if _, err := n.Do(context.Background(), &Request{Host: "x.example", Path: "/"}); err != nil {
		t.Fatal(err)
	}
	if got := n.Clock.Now().Sub(before); got != n.RequestLatency {
		t.Errorf("clock advanced %v, want %v", got, n.RequestLatency)
	}
}

func TestTrafficLogAndReferralAnalysis(t *testing.T) {
	// The paper's key defensive finding: phishing pages hot-load brand
	// logos; the brand can spot impersonation early by watching referer
	// headers on its own asset servers.
	// The network records traffic only into an attached store: the
	// exchange before SpillTrafficTo leaves no trace.
	n := newNet()
	n.AddDNS("brand.example", "198.18.2.1")
	n.Serve("brand.example", func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("logo-bytes")}
	})
	req := func(referer string) *Request {
		return &Request{
			Method: "GET", Host: "brand.example", Path: "/assets/logo.png",
			Headers:  map[string]string{"Referer": referer},
			ClientIP: "10.9.9.9",
		}
	}
	if _, err := n.Do(context.Background(), req("https://unrecorded.buzz/")); err != nil {
		t.Fatal(err)
	}
	store, err := evstore.Create(filepath.Join(t.TempDir(), "traffic.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	n.SpillTrafficTo(store)
	if _, err := n.Do(context.Background(), req("https://evil-login.buzz/portal")); err != nil {
		t.Fatal(err)
	}
	var exchanges []LoggedExchange
	if err := EachExchange(store, func(e *LoggedExchange) bool {
		exchanges = append(exchanges, *e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(exchanges) != 1 {
		t.Fatalf("traffic = %d exchanges, want 1", len(exchanges))
	}
	e := exchanges[0]
	if got := e.Request.Header("referer"); got != "https://evil-login.buzz/portal" {
		t.Errorf("referer = %q", got)
	}
	if e.Request.Host != "brand.example" || e.Request.Path != "/assets/logo.png" ||
		e.Request.ClientIP != "10.9.9.9" || e.Status != 200 || !e.At.Equal(n.Clock.Now()) {
		t.Errorf("exchange = %+v", e)
	}
}

// TestEachExchangeClosedStore pins that a scan of a closed store fails
// instead of reading as no traffic.
func TestEachExchangeClosedStore(t *testing.T) {
	store, err := evstore.Create(filepath.Join(t.TempDir(), "traffic.store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	err = EachExchange(store, func(*LoggedExchange) bool {
		t.Error("EachExchange called fn on a closed store")
		return true
	})
	if !errors.Is(err, evstore.ErrClosed) {
		t.Errorf("EachExchange on a closed store: err = %v, want evstore.ErrClosed", err)
	}
}

func TestRequestHelpers(t *testing.T) {
	r := &Request{Host: "h.example", Path: "/p"}
	if r.Header("missing") != "" {
		t.Error("missing header should be empty")
	}
}

func TestAllocateIPUniquenessProperty(t *testing.T) {
	n := newNet()
	seen := map[string]bool{}
	f := func(class uint8) bool {
		ip := n.AllocateIP(IPClass(class%4 + 1))
		if seen[ip] {
			return false
		}
		seen[ip] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	c := NewClock(_epoch)
	f := func(deltas []int16) bool {
		prev := c.Now()
		for _, d := range deltas {
			c.Advance(time.Duration(d) * time.Second) // negatives ignored
			if c.Now().Before(prev) {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIPCountry(t *testing.T) {
	n := newNet()
	ip := n.AllocateIP(IPResidential)
	if n.CountryOf(ip) != "US" {
		t.Errorf("default country = %q, want US", n.CountryOf(ip))
	}
	n.SetIPCountry(ip, "FR")
	if n.CountryOf(ip) != "FR" {
		t.Errorf("country = %q, want FR", n.CountryOf(ip))
	}
}
