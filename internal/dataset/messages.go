package dataset

import (
	"archive/zip"
	"bytes"
	"encoding/base64"
	"fmt"
	"sort"
	"strings"
	"time"

	"crawlerbox/internal/cloak"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/urlx"
	"crawlerbox/internal/webnet"
)

var _fraudTemplates = []string{
	"This is the billing department of %s. Our records show a past-due balance " +
		"on your account. Reply urgently to arrange payment or your service will " +
		"be disconnected within 48 hours.",
	"Hello, I am reaching out regarding an unpaid invoice from last quarter. " +
		"Please confirm the wire details by replying to this message today.",
	"Your mailbox storage is almost full. Reply to this message with your " +
		"employee ID to request an upgrade before your account is suspended.",
	"We attempted to deliver a package to your office. Reply with your " +
		"availability so our courier can reschedule.",
}

var _lureTemplates = []string{
	"Your password expires today. Renew it immediately here: %s",
	"Unusual sign-in activity was detected on your account. Review now: %s",
	"You have a new encrypted message waiting. Read it here: %s",
	"Action required: your session will be terminated. Re-authenticate: %s",
	"IT notice: mandatory security update for your profile: %s",
}

// planMessages builds every corpus message *plan* with ground truth
// attached: all quota, carrier, and noise decisions are made here (mutating
// the shared quota state and performing world side effects like victim
// registration), but no MIME bytes are rendered. render turns a plan into
// its exact message bytes on demand, so Each defers the heavy payloads
// (QR rasters, PDFs, ZIP archives) to one message at a time.
func (c *Corpus) planMessages(counts dispositionCounts) {
	scale := c.cfg.Scale
	quotas := carrierQuotas{
		faultyQR:   scaleQuota(CountFaultyQR, scale),
		qr:         scaleQuota(CountQRMessages-CountFaultyQR, scale),
		pdf:        scaleQuota(CountPDFMessages, scale),
		htmlLocal:  scaleQuota(CountHTMLAttachLocal, scale),
		htmlWindow: scaleQuota(CountHTMLAttachments-CountHTMLAttachLocal, scale),
		noise:      scaleQuota(CountNoisePadded, scale),
	}

	// Active-phishing messages, grouped per domain.
	msgIdx := 0
	for di := range c.Domains {
		d := &c.Domains[di]
		for k := 0; k < d.MessageCount; k++ {
			delivered := d.AvgDelivery.Add(time.Duration(k*6-d.MessageCount*3) * time.Hour)
			if delivered.Before(_startTime) {
				delivered = _startTime.Add(time.Hour)
			}
			m := c.planActiveMessage(di, k, delivered, &quotas, msgIdx)
			c.Messages = append(c.Messages, m)
			msgIdx++
		}
	}

	// Deactivated / unreachable / mobile-cloaked messages.
	nx := int(float64(counts.errorPages) * ErrorFracNXDomain)
	unreach := int(float64(counts.errorPages) * ErrorFracUnreachable)
	mobile := counts.errorPages - nx - unreach
	c.deployErrorHosts(unreach, mobile)
	for i := 0; i < counts.errorPages; i++ {
		var url string
		switch {
		case i < nx:
			url = fmt.Sprintf("https://takendown-%03d.example/login", i)
		case i < nx+unreach:
			url = fmt.Sprintf("https://unreachable-%03d.example/login", i-nx)
		default:
			url = fmt.Sprintf("https://mobile-only-%03d.example/m", i-nx-unreach)
		}
		delivered := c.deliveredFor(i, counts.errorPages)
		c.Messages = append(c.Messages, Message{
			Delivered: delivered, Month: monthOf(delivered),
			Category: CatError, Carrier: CarrierTextLink, DomainIdx: -1, URL: url,
			genIdx: i,
		})
	}

	// Interaction-required messages.
	for i := 0; i < counts.interaction; i++ {
		host := "drive-share.example"
		if i%3 == 0 {
			host = "captcha-wall.example"
		}
		url := fmt.Sprintf("https://%s/d/%05d", host, i)
		delivered := c.deliveredFor(i, counts.interaction)
		c.Messages = append(c.Messages, Message{
			Delivered: delivered, Month: monthOf(delivered),
			Category: CatInteraction, Carrier: CarrierTextLink, DomainIdx: -1, URL: url,
			genIdx: i,
		})
	}

	// ZIP-with-HTA download messages.
	for i := 0; i < counts.download; i++ {
		delivered := c.deliveredFor(i, counts.download)
		c.Messages = append(c.Messages, Message{
			Delivered: delivered, Month: monthOf(delivered),
			Category: CatDownload, Carrier: CarrierNone, DomainIdx: -1,
			genIdx: i,
		})
	}

	// Plain fraud (no web resource) messages.
	for i := 0; i < counts.noURL; i++ {
		delivered := c.deliveredFor(i, counts.noURL)
		noise := quotas.noise > 0 && i%8 == 0
		if noise {
			quotas.noise--
		}
		c.Messages = append(c.Messages, Message{
			Delivered: delivered, Month: monthOf(delivered),
			Category: CatNoResource, Carrier: CarrierNone, DomainIdx: -1, Noise: noise,
			genIdx: i,
		})
	}

	sort.SliceStable(c.Messages, func(i, j int) bool {
		return c.Messages[i].Delivered.Before(c.Messages[j].Delivered)
	})
}

type carrierQuotas struct {
	faultyQR, qr, pdf, htmlLocal, htmlWindow, noise int
}

// planActiveMessage decides one active-phishing message for domain di:
// URL token, victim registration, noise draw, and the carrier quota
// consumption all happen here, leaving Raw for render.
func (c *Corpus) planActiveMessage(di, k int, delivered time.Time,
	q *carrierQuotas, msgIdx int) Message {
	d := &c.Domains[di]
	url := d.Site.LandingURL
	// Per-message token.
	if d.Cloaks.Tokens {
		base := strings.SplitN(d.Site.LandingURL, "?", 2)[0]
		url = fmt.Sprintf("%s?t=u%03dx%04d", base, di, k)
	}
	victim := victimFor(msgIdx)
	if d.Cloaks.VictimA || d.Cloaks.VictimB {
		d.Site.AddVictim(victim)
		url += "#" + base64.StdEncoding.EncodeToString([]byte(victim))
	}
	noise := false
	if q.noise > 0 && msgIdx%5 == 0 {
		q.noise--
		noise = true
	}

	m := Message{
		Delivered: delivered, Month: monthOf(delivered),
		Category: CatActivePhish, DomainIdx: di,
		Spear: d.Spear, Brand: d.Brand, URL: url, Noise: noise,
		genIdx: msgIdx,
	}
	switch {
	case q.faultyQR > 0 && !d.Cloaks.VictimA && !d.Cloaks.VictimB && msgIdx%4 == 1:
		q.faultyQR--
		m.Carrier = CarrierFaultyQR
	case q.qr > 0 && !d.Cloaks.VictimA && !d.Cloaks.VictimB && msgIdx%4 == 2:
		q.qr--
		m.Carrier = CarrierQR
	case q.pdf > 0 && msgIdx%4 == 3:
		q.pdf--
		m.Carrier = CarrierPDF
	case (q.htmlLocal > 0 || q.htmlWindow > 0) && !d.Spear && msgIdx%3 == 0:
		m.windowRedirect = q.htmlLocal == 0
		if m.windowRedirect {
			q.htmlWindow--
		} else {
			q.htmlLocal--
		}
		m.Carrier = CarrierHTMLAttachment
	case msgIdx%2 == 0:
		m.Carrier = CarrierHTMLLink
	default:
		m.Carrier = CarrierTextLink
	}
	// Gateway URL rewrites hit the link carriers: mail filters rewrap the
	// href/text URL in transit, while QR payloads and attachment contents
	// pass through untouched (which is exactly why those carriers evade).
	if m.Carrier == CarrierTextLink || m.Carrier == CarrierHTMLLink {
		switch msgIdx % 5 {
		case 0:
			m.Rewrite = RewriteSafeLinks
		case 2:
			m.Rewrite = RewriteURLDefense
		case 3:
			m.Rewrite = RewriteDouble
		}
	}
	return m
}

// wrapURL applies the planned gateway rewrite to a link at render time.
// The message bytes carry the wrapped form; the plan's URL stays canonical
// (the wrapper is transport dressing, not ground truth).
func wrapURL(m *Message, url string) string {
	tenant := fmt.Sprintf("nam%02d", m.genIdx%4+1)
	switch m.Rewrite {
	case RewriteSafeLinks:
		return urlx.WrapSafeLinks(tenant, url)
	case RewriteURLDefense:
		return urlx.WrapURLDefense(url)
	case RewriteDouble:
		return urlx.WrapSafeLinks(tenant, urlx.WrapURLDefense(url))
	default:
		return url
	}
}

// render rebuilds a message's MIME bytes from its plan. It is a pure
// function of the plan fields and the immutable domain records — no quota
// state, no world mutation — so every Each pass over a corpus, and over
// any corpus of the same Config, produces identical bytes.
func (c *Corpus) render(m *Message) []byte {
	switch m.Category {
	case CatActivePhish:
		return c.renderActive(m)
	case CatError:
		text := fmt.Sprintf(_lureTemplates[m.genIdx%len(_lureTemplates)], m.URL)
		return c.buildEmail(m.Delivered, "Security alert", text, nil)
	case CatInteraction:
		return c.buildEmail(m.Delivered, "Document shared with you",
			fmt.Sprintf("A document was shared with you: %s", m.URL), nil)
	case CatDownload:
		hta := fmt.Sprintf(`<script language="JScript">var u = "https://dropper-%d.evil/stage2.js";</script>`, m.genIdx)
		zipBytes := buildZipArchive(map[string]string{"document.hta": hta})
		return mime.NewBuilder(c.senderFor(m.genIdx), "employee@corp.example",
			"Shipment documents", m.Delivered).
			Text("Please review the attached shipment documents.").
			Attach("application/zip", "documents.zip", zipBytes).
			Build()
	default: // CatNoResource
		text := _fraudTemplates[m.genIdx%len(_fraudTemplates)]
		if strings.Contains(text, "%s") {
			text = fmt.Sprintf(text, "a partner company")
		}
		if m.Noise {
			text += cloak.NoisePadding(m.genIdx, 40, 60)
		}
		return c.buildEmail(m.Delivered, "Outstanding balance", text, nil)
	}
}

// renderActive rebuilds one active-phishing message from its plan.
func (c *Corpus) renderActive(m *Message) []byte {
	d := &c.Domains[m.DomainIdx]
	url := wrapURL(m, m.URL)
	suffix := ""
	if d.Cloaks.OTP {
		suffix += "\nYour access code " + d.OTPCode + " expires in 15 minutes."
	}
	if m.Noise {
		suffix += cloak.NoisePadding(m.genIdx, 40, 80)
	}
	text := fmt.Sprintf(_lureTemplates[m.genIdx%len(_lureTemplates)], url) + suffix

	builder := mime.NewBuilder(c.senderFor(m.genIdx), victimFor(m.genIdx),
		subjectFor(d, m.genIdx), m.Delivered)
	switch m.Carrier {
	case CarrierFaultyQR:
		img := mustQR("xxx " + url)
		builder.Text("Scan the attached code to view your secure message."+suffix).
			Inline("image/x-cbi", "qr.cbi", imaging.EncodeCBI(img))
	case CarrierQR:
		img := mustQR(url)
		builder.Text("Scan the attached code with your phone to re-enroll in MFA."+suffix).
			Inline("image/x-cbi", "qr.cbi", imaging.EncodeCBI(img))
	case CarrierPDF:
		pdf := pdfx.Build(&pdfx.Document{Pages: []pdfx.Page{{
			TextLines: []string{"Please review the attached notice.", "Open the secure portal below."},
			LinkURIs:  []string{url},
		}}}, true)
		builder.Text("See the attached document."+suffix).
			Attach("application/pdf", "notice.pdf", pdf)
	case CarrierHTMLAttachment:
		att := makeHTMLAttachment(url, m.windowRedirect)
		builder.Text("Open the attached contract to review."+suffix).
			Attach("text/html", "contract.html", []byte(att))
	case CarrierHTMLLink:
		builder.HTML(fmt.Sprintf(
			`<html><body><p>%s</p><a href="%s">Open portal</a></body></html>`,
			strings.SplitN(text, "\n", 2)[0], url)).Text(text)
	default:
		builder.Text(text)
	}
	return builder.Build()
}

// victimFor returns the recipient mailbox of the idx-th active message.
func victimFor(idx int) string {
	return fmt.Sprintf("user%d@corp.example", idx%500)
}

func makeHTMLAttachment(url string, windowRedirect bool) string {
	b64 := base64.StdEncoding.EncodeToString([]byte(url))
	action := `document.body.setInnerHTML('<iframe src="' + target + '"></iframe>');`
	if windowRedirect {
		action = `location.href = target;`
	}
	return fmt.Sprintf(`<html><body style="background:url(https://freeimages.example/bg.png)">
<img src="https://freeimages.example/banner.png" alt="preview">
<script>
var target = atob(%q);
%s
</script></body></html>`, b64, action)
}

func mustQR(payload string) *imaging.Image {
	m, err := qrcode.Encode(payload, qrcode.ECMedium)
	if err != nil {
		panic("dataset: QR encode: " + err.Error())
	}
	img, err := qrcode.Render(m, 4, 4)
	if err != nil {
		panic("dataset: QR render: " + err.Error())
	}
	return img
}

func subjectFor(d *DomainRecord, idx int) string {
	subjects := []string{
		"Action required: password expiry",
		"Security alert on your account",
		"New secure message",
		"Mandatory re-authentication",
		"Updated travel policy document",
	}
	if d.Spear {
		return "[" + d.Brand + "] " + subjects[idx%len(subjects)]
	}
	return subjects[idx%len(subjects)]
}

func (c *Corpus) senderFor(i int) string {
	senders := []string{
		"no-reply@notices-mail.ru", "support@secure-dispatch.com",
		"admin@it-helpdesk.net", "billing@account-services.org",
	}
	return senders[i%len(senders)]
}

// buildEmail renders a basic text message.
func (c *Corpus) buildEmail(delivered time.Time, subject, text string, _ []string) []byte {
	return mime.NewBuilder(c.senderFor(int(delivered.Unix())%7), "employee@corp.example",
		subject, delivered).Text(text).Build()
}

// deliveredFor spreads the i-th of n messages across the ten months
// proportionally to the monthly plan.
func (c *Corpus) deliveredFor(i, n int) time.Time {
	total := 0
	for _, m := range c.Monthly {
		total += m
	}
	if total == 0 || n == 0 {
		return _startTime.Add(time.Duration(i) * time.Hour)
	}
	target := i * total / n
	cum := 0
	for month, m := range c.Monthly {
		cum += m
		if target < cum {
			offset := time.Duration((i*37)%(27*24)) * time.Hour
			return monthStart(month).Add(offset)
		}
	}
	return monthStart(9).Add(time.Duration(i%600) * time.Hour)
}

func monthOf(t time.Time) int {
	return int(t.Month()) - 1
}

// deployErrorHosts sets up the unreachable and mobile-only hosts that the
// error-category messages point at.
func (c *Corpus) deployErrorHosts(unreach, mobile int) {
	for i := 0; i < unreach; i++ {
		host := fmt.Sprintf("unreachable-%03d.example", i)
		c.Net.AddDNS(host, c.Net.AllocateIP(webnet.IPDatacenter))
		// No Serve: resolves but nothing answers.
	}
	for i := 0; i < mobile; i++ {
		host := fmt.Sprintf("mobile-only-%03d.example", i)
		ip := c.Net.AllocateIP(webnet.IPDatacenter)
		c.Net.AddDNS(host, ip)
		handler := cloak.Chain(func(*webnet.Request) *webnet.Response {
			return &webnet.Response{Status: 200,
				Body: []byte(`<html><body><form><input type="password"></form></body></html>`)}
		}, cloak.UserAgentFilter("iPhone", "Android"))
		c.Net.Serve(host, handler)
	}
}

func buildZipArchive(files map[string]string) []byte {
	var b bytes.Buffer
	zw := zip.NewWriter(&b)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, err := zw.Create(name)
		if err != nil {
			continue
		}
		_, _ = w.Write([]byte(files[name]))
	}
	_ = zw.Close()
	return b.Bytes()
}
