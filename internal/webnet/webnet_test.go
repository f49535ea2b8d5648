package webnet

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"
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
	ip, err := n.Resolve("PHISH.example", "10.0.0.1")
	if err != nil || ip != "198.18.0.99" {
		t.Fatalf("Resolve = %q, %v", ip, err)
	}
	if _, err := n.Resolve("gone.example", "10.0.0.1"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want ErrNXDomain", err)
	}
	n.RemoveDNS("phish.example")
	if _, err := n.Resolve("phish.example", "10.0.0.1"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("after RemoveDNS err = %v", err)
	}
}

func TestPassiveDNSLedger(t *testing.T) {
	n := newNet()
	n.AddDNS("tracked.example", "198.18.0.5")
	for i := 0; i < 3; i++ {
		if _, err := n.Resolve("tracked.example", "10.0.0.1"); err != nil {
			t.Fatal(err)
		}
		n.Clock.Advance(time.Hour)
	}
	total, maxDaily := n.QueryVolume("tracked.example", 30*24*time.Hour, n.Clock.Now())
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
	if maxDaily != 3 {
		t.Errorf("maxDaily = %d, want 3 (same day)", maxDaily)
	}
}

func TestBackgroundQueriesShapeVolume(t *testing.T) {
	n := newNet()
	until := _epoch.Add(30 * 24 * time.Hour)
	n.RecordBackgroundQueries("lowvol.example", 43, 30*24*time.Hour, until)
	n.RecordBackgroundQueries("highvol.example", 665000, 30*24*time.Hour, until)
	totalLow, maxLow := n.QueryVolume("lowvol.example", 30*24*time.Hour, until)
	totalHigh, maxHigh := n.QueryVolume("highvol.example", 30*24*time.Hour, until)
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
	total, _ := n.QueryVolume("lowvol.example", 24*time.Hour, until.Add(-20*24*time.Hour))
	if total >= 43 {
		t.Errorf("window filter ineffective: %d", total)
	}
}

func TestCertificatesAndCTLog(t *testing.T) {
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
	log := n.CTLog()
	if len(log) != 3 {
		t.Fatalf("CT log = %d entries", len(log))
	}
	if log[0] != c1 || log[1] != c2 {
		t.Error("CT log order wrong")
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
	n := newNet()
	n.AddDNS("brand.example", "198.18.2.1")
	n.Serve("brand.example", func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("logo-bytes")}
	})
	req := &Request{
		Method: "GET", Host: "brand.example", Path: "/assets/logo.png",
		Headers:  map[string]string{"Referer": "https://evil-login.buzz/portal"},
		ClientIP: "10.9.9.9",
	}
	if _, err := n.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var exchanges []LoggedExchange
	n.EachTrafficTo("brand.example", func(e *LoggedExchange) bool {
		exchanges = append(exchanges, *e)
		return true
	})
	if len(exchanges) != 1 {
		t.Fatalf("traffic = %d", len(exchanges))
	}
	if got := exchanges[0].Request.Header("referer"); got != "https://evil-login.buzz/portal" {
		t.Errorf("referer = %q", got)
	}
}

func TestRequestHelpers(t *testing.T) {
	r := &Request{Host: "h.example", Path: "/p", RawQuery: "a=1"}
	if r.URL() != "https://h.example/p?a=1" {
		t.Errorf("URL = %q", r.URL())
	}
	r2 := &Request{Host: "h.example", Path: "/p"}
	if r2.URL() != "https://h.example/p" {
		t.Errorf("URL = %q", r2.URL())
	}
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
