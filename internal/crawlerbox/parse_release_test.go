package crawlerbox_test

import (
	"reflect"
	"sync"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

// releaseMessage builds a message whose base64 parts are a QR code image,
// a PDF and an HTML attachment, each naming tag. Tags of one length give
// messages whose parts have the same sizes, so parsing one message after
// another decodes into the buffers the last parse released.
func releaseMessage(t *testing.T, tag string) []byte {
	t.Helper()
	m, err := qrcode.Encode("https://"+tag+"-qr.example/verify", qrcode.ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qrcode.Render(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pdf := pdfx.Build(&pdfx.Document{Pages: []pdfx.Page{{
		TextLines: []string{"Renew at https://" + tag + "-pdf.example/renew today."},
		LinkURIs:  []string{"https://" + tag + "-link.example/"},
	}}}, false)
	html := `<html><body><a href="https://` + tag + `-html.example/">open</a></body></html>`
	return mime.NewBuilder("it@phish.example", "victim@corp.example", "Action "+tag, _memoEpoch).
		Text("See the attached files.").
		Inline("image/x-cbi", "qr.cbi", imaging.EncodeCBI(img)).
		Attach("application/pdf", "renew.pdf", pdf).
		Attach("text/html", "invoice-"+tag+".html", []byte(html)).
		Build()
}

// TestParseResultOutlivesReleasedBuffers pins that a ParseResult holds no
// slice of the buffers the parse decoded into and gave back: after three
// more parses have decoded other bytes into those buffers, the memoised
// result of the first parse still equals its snapshot.
func TestParseResultOutlivesReleasedBuffers(t *testing.T) {
	pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
	first := releaseMessage(t, "aaaa")
	res, err := pipe.ParseMessage(first)
	if err != nil {
		t.Fatal(err)
	}
	if res.QRCount != 1 || len(res.HTMLAttachments) != 1 || len(res.URLs) < 3 {
		t.Fatalf("the message does not exercise every part: %+v", *res)
	}
	snap := cloneParse(res)
	for _, tag := range []string{"bbbb", "cccc", "dddd"} {
		if _, err := pipe.ParseMessage(releaseMessage(t, tag)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := pipe.ParseMessage(first)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("the first message's parse is no longer memoised")
	}
	if !reflect.DeepEqual(*again, snap) {
		t.Errorf("the memoised parse changed after later parses reused its buffers:\n got %+v\nwant %+v", *again, snap)
	}
}

// TestParseReleaseConcurrent parses messages from several goroutines at
// once, each parse releasing its buffers to the shared pools while the
// others decode into them, and checks every result against a parse made
// alone. Run it under -race.
func TestParseReleaseConcurrent(t *testing.T) {
	tags := []string{"aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff"}
	raws := make([][]byte, len(tags))
	want := make([]crawlerbox.ParseResult, len(tags))
	for i, tag := range tags {
		raws[i] = releaseMessage(t, tag)
		pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
		res, err := pipe.ParseMessage(raws[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cloneParse(res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A fresh pipeline each round: a memo hit decodes nothing.
			for round := 0; round < 5; round++ {
				pipe := crawlerbox.New(webnet.NewInternet(webnet.NewClock(_memoEpoch)), whois.NewRegistry())
				for i := range raws {
					j := (i + g) % len(raws)
					res, err := pipe.ParseMessage(raws[j])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(*res, want[j]) {
						t.Errorf("message %s parsed concurrently: %+v, want %+v", tags[j], *res, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
