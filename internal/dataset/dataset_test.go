package dataset

import (
	"sort"
	"testing"

	"crawlerbox/internal/mime"
	"crawlerbox/internal/stats"
	"crawlerbox/internal/urlx"
)

// smallCorpus caches one generated corpus per test binary run.
var _smallCorpus *Corpus

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	if _smallCorpus == nil {
		c, err := Stream(Config{Seed: 11, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		_smallCorpus = c
	}
	return _smallCorpus
}

// rendered returns the bytes of every message of a fresh corpus of cfg.
func rendered(t *testing.T, cfg Config) (*Corpus, [][]byte) {
	t.Helper()
	c, err := Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	c.Each(func(_ int, m *Message) bool {
		raws = append(raws, m.Raw)
		return true
	})
	return c, raws
}

func TestGenerateDeterministic(t *testing.T) {
	a, araws := rendered(t, Config{Seed: 5, Scale: 0.02})
	b, braws := rendered(t, Config{Seed: 5, Scale: 0.02})
	if len(araws) != len(braws) || len(a.Domains) != len(b.Domains) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(araws), len(a.Domains), len(braws), len(b.Domains))
	}
	for i := range araws {
		if string(araws[i]) != string(braws[i]) {
			t.Fatalf("message %d differs between equal-seed runs", i)
		}
	}
	_, craws := rendered(t, Config{Seed: 6, Scale: 0.02})
	same := true
	for i := range araws {
		if i < len(craws) && string(araws[i]) != string(craws[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestCategoryProportions(t *testing.T) {
	c := smallCorpus(t)
	byCat := map[Category]int{}
	for _, m := range c.Messages {
		byCat[m.Category]++
	}
	total := len(c.Messages)
	checkShare := func(cat Category, want float64) {
		got := 100 * float64(byCat[cat]) / float64(total)
		if got < want-3 || got > want+3 {
			t.Errorf("%v share = %.1f%%, want ~%.1f%%", cat, got, want)
		}
	}
	checkShare(CatNoResource, 49.6)
	checkShare(CatError, 15.9)
	checkShare(CatInteraction, 4.5)
	checkShare(CatActivePhish, 29.9)
	if byCat[CatDownload] == 0 {
		t.Error("no download messages generated")
	}
}

func TestDomainStructure(t *testing.T) {
	c := smallCorpus(t)
	hosts := map[string]bool{}
	var counts []float64
	maxCount := 0
	spear := 0
	for _, d := range c.Domains {
		if hosts[d.Host] {
			t.Errorf("duplicate host %q", d.Host)
		}
		hosts[d.Host] = true
		counts = append(counts, float64(d.MessageCount))
		if d.MessageCount > maxCount {
			maxCount = d.MessageCount
		}
		if d.Spear {
			spear++
		}
	}
	med, err := stats.Median(counts)
	if err != nil {
		t.Fatal(err)
	}
	if med != 1 {
		t.Errorf("median messages/domain = %v, want 1", med)
	}
	if maxCount > MaxMessagesPerDomain {
		t.Errorf("max messages/domain = %d > cap %d", maxCount, MaxMessagesPerDomain)
	}
	spearFrac := float64(spear) / float64(len(c.Domains))
	if spearFrac < 0.6 || spearFrac > 0.9 {
		t.Errorf("spear domain fraction = %.2f, want ~411/522", spearFrac)
	}
}

func TestTLDDistributionShape(t *testing.T) {
	c := smallCorpus(t)
	hosts := make([]string, 0, len(c.Domains))
	for _, d := range c.Domains {
		hosts = append(hosts, d.Host)
	}
	dist := urlx.TLDDistribution(hosts)
	if dist[0].TLD != ".com" {
		t.Errorf("top TLD = %s, want .com", dist[0].TLD)
	}
	byTLD := map[string]int{}
	for _, row := range dist {
		byTLD[row.TLD] = row.Count
	}
	if byTLD[".ru"] == 0 || byTLD[".dev"] == 0 || byTLD[".buzz"] == 0 {
		t.Errorf("signature TLDs missing: %v", byTLD)
	}
	if byTLD[".com"] < byTLD[".ru"] {
		t.Error(".com must dominate .ru")
	}
}

func TestTimelineShape(t *testing.T) {
	c := smallCorpus(t)
	var deltaA, deltaB []float64
	for _, d := range c.Domains {
		deltaA = append(deltaA, d.AvgDelivery.Sub(d.Registered).Hours())
		deltaB = append(deltaB, d.AvgDelivery.Sub(d.CertIssued).Hours())
	}
	medA, _ := stats.Median(deltaA)
	medB, _ := stats.Median(deltaB)
	// Shape: registration leads certificates, both positive, medians in
	// the right ballpark (paper: 575 h and 185 h).
	if medA < 200 || medA > 1600 {
		t.Errorf("median timedeltaA = %.0f h, want ~575", medA)
	}
	if medB < 60 || medB > 600 {
		t.Errorf("median timedeltaB = %.0f h, want ~185", medB)
	}
	if medB >= medA {
		t.Errorf("cert lead (%.0f) must be shorter than registration lead (%.0f)", medB, medA)
	}
	for i, d := range c.Domains {
		if d.CertIssued.Before(d.Registered) && d.Provenance == 1 {
			t.Errorf("domain %d: certificate predates registration", i)
		}
		if !d.AvgDelivery.After(d.Registered) {
			t.Errorf("domain %d: delivery before registration", i)
		}
	}
}

func TestMessagesParseable(t *testing.T) {
	c := smallCorpus(t)
	c.Each(func(i int, m *Message) bool {
		if _, err := mime.Parse(m.Raw); err != nil {
			t.Fatalf("message %d unparseable: %v", i, err)
		}
		return true
	})
}

func TestMessagesSortedByDelivery(t *testing.T) {
	c := smallCorpus(t)
	if !sort.SliceIsSorted(c.Messages, func(i, j int) bool {
		return c.Messages[i].Delivered.Before(c.Messages[j].Delivered)
	}) {
		t.Error("messages not sorted by delivery time")
	}
}

func TestMonthlyShapeDownwardTrend(t *testing.T) {
	c := smallCorpus(t)
	var total int
	for _, v := range c.Monthly {
		total += v
	}
	if total != len(c.Messages) {
		t.Errorf("monthly sum %d != message count %d", total, len(c.Messages))
	}
	if c.Monthly[0] <= c.Monthly[9] {
		t.Errorf("January (%d) should exceed October (%d): downward trend", c.Monthly[0], c.Monthly[9])
	}
}

func TestCloakAssignments(t *testing.T) {
	c := smallCorpus(t)
	var turnstileMsgs, activeMsgs int
	var anyVictim, anyOTP, anyHue bool
	for _, d := range c.Domains {
		activeMsgs += d.MessageCount
		if d.Cloaks.Turnstile {
			turnstileMsgs += d.MessageCount
		}
		if d.Cloaks.VictimA || d.Cloaks.VictimB {
			anyVictim = true
		}
		if d.Cloaks.OTP {
			anyOTP = true
			if d.OTPCode == "" {
				t.Error("OTP domain without code")
			}
		}
		if d.Cloaks.HueRotate {
			anyHue = true
		}
		if d.Cloaks.ReCaptcha && !d.Cloaks.Turnstile {
			t.Error("reCAPTCHA must ride on Turnstile sites (the nested deployment)")
		}
	}
	share := float64(turnstileMsgs) / float64(activeMsgs)
	if share < 0.6 || share > 0.9 {
		t.Errorf("turnstile share = %.2f, want ~0.74", share)
	}
	if !anyVictim || !anyOTP || !anyHue {
		t.Errorf("cloak coverage missing: victim=%v otp=%v hue=%v", anyVictim, anyOTP, anyHue)
	}
}

func TestWhoisAndCertsRegistered(t *testing.T) {
	c := smallCorpus(t)
	for _, d := range c.Domains {
		if _, err := c.Registry.Lookup(registrableOf(d.Host)); err != nil {
			t.Errorf("no WHOIS for %s: %v", d.Host, err)
		}
		if _, ok := c.Net.CertFor(d.Host); !ok {
			t.Errorf("no certificate for %s", d.Host)
		}
	}
}

func TestRuRegistrars(t *testing.T) {
	c := smallCorpus(t)
	for _, d := range c.Domains {
		if !hasSuffix(d.Host, ".ru") {
			continue
		}
		rec, err := c.Registry.Lookup(registrableOf(d.Host))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range RuRegistrarsRotation {
			if rec.Registrar == r {
				found = true
			}
		}
		if !found {
			t.Errorf(".ru domain %s has registrar %q", d.Host, rec.Registrar)
		}
	}
}

func TestAllocateCounts(t *testing.T) {
	counts := allocateCounts(1551, 522, 58)
	if len(counts) != 522 {
		t.Fatalf("len = %d", len(counts))
	}
	total, maxC, ones := 0, 0, 0
	for _, c := range counts {
		total += c
		if c > maxC {
			maxC = c
		}
		if c == 1 {
			ones++
		}
	}
	if total != 1551 {
		t.Errorf("total = %d, want 1551", total)
	}
	if maxC > 58 {
		t.Errorf("max = %d > 58", maxC)
	}
	if ones < 261 {
		t.Errorf("only %d domains with exactly 1 message; median must be 1", ones)
	}
}

func TestScaledMonthly(t *testing.T) {
	m := scaledMonthly(0.1, 518)
	total := 0
	for _, v := range m {
		total += v
	}
	if total != 518 {
		t.Errorf("scaled monthly sums to %d, want 518", total)
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
