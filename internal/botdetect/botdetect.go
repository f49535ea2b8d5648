// Package botdetect re-implements the three bot-detection systems the paper
// evaluates crawlers against (Table I):
//
//   - BotD: an open-source client-side library running basic automation
//     probes (navigator.webdriver, headless UA markers, ChromeDriver cdc_
//     artifacts).
//   - Turnstile: an advanced JavaScript challenge in the style of
//     Cloudflare's CAPTCHA alternative — BotD's probes plus headless GPU
//     detection, stealth-plugin plugin-table inconsistencies, driver-binary
//     leftovers, timing-quantization VM detection, and server-side header
//     and TLS inspection. Issues single-use clearance tokens.
//   - AnonWAF: a commercial-style Web Application Firewall wrapping an
//     origin server: TLS fingerprinting, header inspection, and an
//     interstitial JavaScript challenge that sets a clearance cookie.
//
// Every verdict derives from the crawler's genuine observable surface as
// exposed through the simulated browser — nothing is keyed on a crawler's
// name — so the Table I matrix is an emergent result.
package botdetect

import (
	"fmt"
	"strings"
	"sync"

	"crawlerbox/internal/webnet"
)

// Verdict is one detector decision.
type Verdict struct {
	Bot     bool
	Reasons []string
}

// verdictLog stores per-client verdicts.
type verdictLog struct {
	mu       sync.Mutex
	verdicts map[string]Verdict // clientIP -> latest verdict; guarded by mu
}

func newVerdictLog() *verdictLog {
	return &verdictLog{verdicts: map[string]Verdict{}}
}

func (l *verdictLog) record(clientIP string, v Verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.verdicts[clientIP] = v
}

func (l *verdictLog) lookup(clientIP string) (Verdict, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.verdicts[clientIP]
	return v, ok
}

// scriptResponse answers a request for a detector's script with body, the
// script's bytes built when the service was installed. Every response
// shares them: no consumer of a response writes into its body.
func scriptResponse(body []byte) *webnet.Response {
	return &webnet.Response{Status: 200, Body: body,
		Headers: map[string]string{"Content-Type": "text/javascript"}}
}

// BotD is the basic open-source detection library. Its probe script runs on
// any page that includes it and reports the result to the BotD host.
type BotD struct {
	host string
	// script is the probe script, built once; body holds its bytes, which
	// every /botd.js response shares (see scriptResponse).
	script string
	body   []byte
	log    *verdictLog
}

// NewBotD installs the BotD service on the network at the given host.
func NewBotD(net *webnet.Internet, host string) *BotD {
	b := &BotD{host: host, script: botdScript(host), log: newVerdictLog()}
	b.body = []byte(b.script)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		switch req.Path {
		case "/botd.js":
			return scriptResponse(b.body)
		case "/report":
			v := parseReport(req.Body)
			b.log.record(req.ClientIP, v)
			return &webnet.Response{Status: 200, Body: []byte("ok")}
		default:
			return &webnet.Response{Status: 404}
		}
	})
	return b
}

// Host returns the service host name.
func (b *BotD) Host() string { return b.host }

// Script returns the client-side probe. The checks mirror the real BotD's
// core heuristics.
func (b *BotD) Script() string { return b.script }

// botdScript builds the probe script of the service at host.
func botdScript(host string) string {
	return `
	var __botd_reasons = [];
	if (navigator.webdriver) { __botd_reasons.push("webdriver"); }
	if (navigator.userAgent.indexOf("HeadlessChrome") >= 0) { __botd_reasons.push("headless-ua"); }
	if (typeof cdc_adoQpoasnfa76pfcZLmcfl_Array !== "undefined") { __botd_reasons.push("cdc-artifact"); }
	if (typeof window.__webdriver_evaluate !== "undefined") { __botd_reasons.push("webdriver-eval"); }
	var __botd_xhr = new XMLHttpRequest();
	__botd_xhr.open("POST", "https://` + host + `/report", false);
	__botd_xhr.send(JSON.stringify({bot: __botd_reasons.length > 0, reasons: __botd_reasons.join(",")}));
	`
}

// VerdictFor returns the recorded verdict for a client. Clients that never
// reported (no JavaScript execution) read as bots with reason "no-report".
func (b *BotD) VerdictFor(clientIP string) Verdict {
	if v, ok := b.log.lookup(clientIP); ok {
		return v
	}
	return Verdict{Bot: true, Reasons: []string{"no-report"}}
}

func parseReport(body string) Verdict {
	v := Verdict{}
	if strings.Contains(body, `"bot":true`) {
		v.Bot = true
	}
	if idx := strings.Index(body, `"reasons":"`); idx >= 0 {
		rest := body[idx+len(`"reasons":"`):]
		if end := strings.IndexByte(rest, '"'); end >= 0 && rest[:end] != "" {
			v.Reasons = strings.Split(rest[:end], ",")
		}
	}
	return v
}

// headerChecks runs the server-side request-surface inspection shared by
// Turnstile and AnonWAF.
func headerChecks(req *webnet.Request, checkTLS bool) []string {
	var reasons []string
	ua := req.Header("User-Agent")
	switch {
	case ua == "":
		reasons = append(reasons, "no-ua")
	case strings.Contains(ua, "HeadlessChrome"):
		reasons = append(reasons, "headless-ua")
	case !strings.Contains(ua, "Mozilla/"):
		reasons = append(reasons, "tool-ua")
	}
	if req.Header("Accept-Language") == "" {
		reasons = append(reasons, "no-accept-language")
	}
	if strings.EqualFold(req.Header("Cache-Control"), "no-cache") &&
		strings.EqualFold(req.Header("Pragma"), "no-cache") {
		reasons = append(reasons, "interception-cache-quirk")
	}
	if checkTLS && !strings.Contains(req.TLSFingerprint, "chrome-grease") {
		reasons = append(reasons, "tool-tls")
	}
	return reasons
}

func jsonReasons(reasons []string) string {
	return fmt.Sprintf(`{"bot":%v,"reasons":"%s"}`, len(reasons) > 0, strings.Join(reasons, ","))
}
