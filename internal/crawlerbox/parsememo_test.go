package crawlerbox_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/tracestore"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

var _memoEpoch = time.Date(2024, 4, 10, 9, 0, 0, 0, time.UTC)

// corpusPipeline builds a fresh seed-7 world with its pipeline and returns
// the first n corpus messages as specs.
func corpusPipeline(t *testing.T, n int) (*crawlerbox.Pipeline, []crawlerbox.MessageSpec) {
	t.Helper()
	c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	var specs []crawlerbox.MessageSpec
	c.Each(func(i int, m *dataset.Message) bool {
		specs = append(specs, crawlerbox.MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)})
		return len(specs) < n
	})
	return pipe, specs
}

// bareMessage builds a one-link message for the world-free tests.
func bareMessage(link string) []byte {
	return mime.NewBuilder("attacker@phish.example", "victim@corp.example",
		"Action required", _memoEpoch).Text("Renew your password: " + link).Build()
}

// cloneParse deep-copies a parse result, as a snapshot to compare against.
// Strings are copied too, so a result whose strings share memory with a
// buffer that is later overwritten differs from its snapshot.
func cloneParse(r *crawlerbox.ParseResult) crawlerbox.ParseResult {
	s := *r
	s.Subject, s.From = strings.Clone(r.Subject), strings.Clone(r.From)
	s.Auth = mime.AuthResults{SPF: strings.Clone(r.Auth.SPF), DKIM: strings.Clone(r.Auth.DKIM), DMARC: strings.Clone(r.Auth.DMARC)}
	s.URLs = slices.Clone(r.URLs)
	for i := range s.URLs {
		s.URLs[i].URL = strings.Clone(s.URLs[i].URL)
	}
	s.HTMLAttachments = slices.Clone(r.HTMLAttachments)
	for i, a := range s.HTMLAttachments {
		s.HTMLAttachments[i] = crawlerbox.HTMLAttachmentFile{Filename: strings.Clone(a.Filename), Content: strings.Clone(a.Content)}
	}
	s.HTAURLs = cloneStrings(r.HTAURLs)
	s.OTPCodes = cloneStrings(r.OTPCodes)
	return s
}

// cloneStrings copies a string slice and every string in it.
func cloneStrings(in []string) []string {
	out := slices.Clone(in)
	for i := range out {
		out[i] = strings.Clone(out[i])
	}
	return out
}

// verdictBytes renders the analysis as its triage verdict row and its
// evidence encoding: the two byte forms the pipeline's output is kept in.
func verdictBytes(t *testing.T, id int64, ma *crawlerbox.MessageAnalysis, err error) ([]byte, []byte) {
	t.Helper()
	row, jerr := json.Marshal(tracestore.VerdictOf(id, ma, err))
	if jerr != nil {
		t.Fatal(jerr)
	}
	if ma == nil {
		return row, nil
	}
	return row, crawlerbox.EncodeEvidence(ma.Visits)
}

// TestParseMemoKeyerThenAnalyzeMatchesFresh is the ingest path: the keyer
// parses each message, then Analyze runs on the same bytes. ParseStage must
// reuse the keyer's parse, the output must be byte-identical to a fresh
// pipeline's, and no stage or consumer may modify the shared parse.
func TestParseMemoKeyerThenAnalyzeMatchesFresh(t *testing.T) {
	const n = 60
	keyed, specs := corpusPipeline(t, n)
	fresh, _ := corpusPipeline(t, n)
	key := ingest.PipelineKeyer(keyed)
	ctx := context.Background()
	for _, spec := range specs {
		key(spec.Raw)
		parsed, perr := keyed.ParseMessage(spec.Raw)
		var snap crawlerbox.ParseResult
		if perr == nil {
			snap = cloneParse(parsed)
		}

		got, gotErr := keyed.Analyze(ctx, spec)
		want, wantErr := fresh.Analyze(ctx, spec)
		gotRow, gotEv := verdictBytes(t, spec.ID, got, gotErr)
		wantRow, wantEv := verdictBytes(t, spec.ID, want, wantErr)
		if !bytes.Equal(gotRow, wantRow) {
			t.Errorf("message %d: verdict row diverges from a fresh pipeline:\n got %s\nwant %s", spec.ID, gotRow, wantRow)
		}
		if !bytes.Equal(gotEv, wantEv) {
			t.Errorf("message %d: evidence encoding diverges from a fresh pipeline", spec.ID)
		}
		if perr != nil || got == nil {
			continue
		}
		if got.Parse != parsed {
			t.Errorf("message %d: ParseStage parsed again instead of reusing the keyer's parse", spec.ID)
		}
		if !reflect.DeepEqual(*got.Parse, snap) {
			t.Errorf("message %d: the shared ParseResult was modified downstream:\n got %+v\nwant %+v", spec.ID, *got.Parse, snap)
		}
	}
}

// TestParseMemoOverBudgetMatchesFresh is the keyer-then-Analyze path for a
// message larger than the memo's whole byte budget: the keyer's parse is
// not memoised, and the analysis still matches a fresh pipeline's byte for
// byte.
func TestParseMemoOverBudgetMatchesFresh(t *testing.T) {
	keyed, specs := corpusPipeline(t, 8)
	fresh, _ := corpusPipeline(t, 8)
	link := ""
	for _, spec := range specs {
		if res, err := fresh.ParseMessage(spec.Raw); err == nil && len(res.URLs) > 0 {
			link = res.URLs[0].URL
			break
		}
	}
	if link == "" {
		t.Fatal("no corpus message carries a link")
	}
	// Half the budget of markup, base64-encoded in the message, puts raw
	// bytes plus kept markup over the budget.
	page := "<html><head><title>Invoice</title></head><body><!--" +
		strings.Repeat("x", crawlerbox.ParseMemoBudget/2) + "--><p>Invoice</p></body></html>"
	raw := mime.NewBuilder("attacker@phish.example", "victim@corp.example", "Invoice", _memoEpoch).
		Text("Renew your password: "+link).Attach("text/html", "invoice.html", []byte(page)).Build()
	spec := crawlerbox.MessageSpec{Raw: raw, ID: 1, At: specs[0].At}

	if got := ingest.PipelineKeyer(keyed)(raw); got != link {
		t.Fatalf("key = %q, want %q", got, link)
	}
	if n := keyed.ParseMemoLen(); n != 0 {
		t.Errorf("the memo holds %d parses after keying an over-budget message, want 0", n)
	}
	got, gotErr := keyed.Analyze(context.Background(), spec)
	want, wantErr := fresh.Analyze(context.Background(), spec)
	gotRow, gotEv := verdictBytes(t, spec.ID, got, gotErr)
	wantRow, wantEv := verdictBytes(t, spec.ID, want, wantErr)
	if !bytes.Equal(gotRow, wantRow) {
		t.Errorf("verdict row diverges from a fresh pipeline:\n got %s\nwant %s", gotRow, wantRow)
	}
	if !bytes.Equal(gotEv, wantEv) {
		t.Error("evidence encoding diverges from a fresh pipeline")
	}
}

// TestParseMemoBounded drives the keyer alone, the way cache-hit traffic
// does (no analysis follows), over ten times the memo's capacity: the memo
// never holds more than its capacity, evicts first in, first out, and never
// records a failed parse.
func TestParseMemoBounded(t *testing.T) {
	pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
	key := ingest.PipelineKeyer(pipe)

	if _, err := pipe.ParseMessage([]byte("no header block")); err == nil {
		t.Fatal("parsing a message without headers succeeded")
	}
	if n := pipe.ParseMemoLen(); n != 0 {
		t.Fatalf("memo holds %d entries after a failed parse, want 0", n)
	}

	first := bareMessage("https://host-0.example/login")
	firstParse, err := pipe.ParseMessage(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*crawlerbox.ParseMemoSize; i++ {
		link := fmt.Sprintf("https://host-%d.example/login", i+1)
		if got := key(bareMessage(link)); got != link {
			t.Fatalf("key = %q, want %q", got, link)
		}
		if n := pipe.ParseMemoLen(); n > crawlerbox.ParseMemoSize {
			t.Fatalf("after %d keyer calls the memo holds %d entries, capacity %d", i+1, n, crawlerbox.ParseMemoSize)
		}
	}
	again, err := pipe.ParseMessage(first)
	if err != nil {
		t.Fatal(err)
	}
	if again == firstParse {
		t.Error("an evicted parse was still served")
	}
	if !reflect.DeepEqual(again, firstParse) {
		t.Errorf("reparse differs: %+v vs %+v", again, firstParse)
	}
	if hit, _ := pipe.ParseMessage(first); hit != again {
		t.Error("the reparsed message was not memoised")
	}
}

// TestParseMemoMutatedBufferReparses pins content addressing: a buffer
// mutated in place between keying and analysis is parsed afresh.
func TestParseMemoMutatedBufferReparses(t *testing.T) {
	pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
	key := ingest.PipelineKeyer(pipe)
	buf := bareMessage("https://aaaa.example/login")
	if got := key(buf); got != "https://aaaa.example/login" {
		t.Fatalf("key = %q", got)
	}
	at := bytes.Index(buf, []byte("aaaa"))
	copy(buf[at:], "bbbb")
	ma, err := pipe.Analyze(context.Background(), crawlerbox.MessageSpec{Raw: buf, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.Parse.URLs[0].URL; got != "https://bbbb.example/login" {
		t.Errorf("after mutation the analysis saw %q, want the mutated link", got)
	}
}

// TestParseMemoConcurrent parses more distinct messages than the memo
// holds from several goroutines at once, so lookups race with eviction;
// run it under -race.
func TestParseMemoConcurrent(t *testing.T) {
	pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
	links := make([]string, 2*crawlerbox.ParseMemoSize)
	raws := make([][]byte, len(links))
	for i := range links {
		links[i] = fmt.Sprintf("https://host-%d.example/login", i)
		raws[i] = bareMessage(links[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range raws {
					i := (j*(w+1) + round) % len(raws)
					res, err := pipe.ParseMessage(raws[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got := res.URLs[0].URL; got != links[i] {
						t.Errorf("message %d parsed to %q, want %q", i, got, links[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := pipe.ParseMemoLen(); n > crawlerbox.ParseMemoSize {
		t.Errorf("memo holds %d entries, capacity %d", n, crawlerbox.ParseMemoSize)
	}
}
