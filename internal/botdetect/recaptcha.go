package botdetect

import (
	"fmt"
	"strings"

	"crawlerbox/internal/webnet"
)

// ReCaptchaV3 is a score-based background verification service in the style
// of Google reCAPTCHA v3. It never interrupts the visitor: its script
// gathers signals silently and posts them for a score. The corpus runs it
// *after* Turnstile (314 messages, 24.8%) so victims never face two visible
// challenges — this service reproduces that background role.
type ReCaptchaV3 struct {
	host string
	// script is the background probe, built once; body holds its bytes,
	// which every /api.js response shares (see scriptResponse).
	script string
	body   []byte
	log    *verdictLog
}

// NewReCaptchaV3 installs the service on the network.
func NewReCaptchaV3(net *webnet.Internet, host string) *ReCaptchaV3 {
	r := &ReCaptchaV3{host: host, script: recaptchaScript(host), log: newVerdictLog()}
	r.body = []byte(r.script)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		switch req.Path {
		case "/api.js":
			return scriptResponse(r.body)
		case "/score":
			reasons := headerChecks(req, false)
			if idx := strings.Index(req.Body, `"reasons":"`); idx >= 0 {
				rest := req.Body[idx+len(`"reasons":"`):]
				if end := strings.IndexByte(rest, '"'); end >= 0 && rest[:end] != "" {
					reasons = append(reasons, strings.Split(rest[:end], ",")...)
				}
			}
			v := Verdict{Bot: len(reasons) > 0, Reasons: reasons}
			r.log.record(req.ClientIP, v)
			score := 0.9
			if v.Bot {
				score = 0.1
			}
			return &webnet.Response{Status: 200, Body: []byte(fmt.Sprintf(`{"score":%.1f}`, score))}
		default:
			return &webnet.Response{Status: 404}
		}
	})
	return r
}

// Host returns the service host name.
func (r *ReCaptchaV3) Host() string { return r.host }

// Script returns the silent background probe.
func (r *ReCaptchaV3) Script() string { return r.script }

// recaptchaScript builds the background probe of the service at host.
func recaptchaScript(host string) string {
	return `
	(function() {
		var reasons = [];
		if (navigator.webdriver) { reasons.push("webdriver"); }
		if (navigator.userAgent.indexOf("HeadlessChrome") >= 0) { reasons.push("headless-ua"); }
		if (navigator.plugins.length === 0) { reasons.push("no-plugins"); }
		var xhr = new XMLHttpRequest();
		xhr.open("POST", "https://` + host + `/score", false);
		xhr.send(JSON.stringify({reasons: reasons.join(",")}));
	})();
	`
}

// VerdictFor returns the last background verdict for a client.
func (r *ReCaptchaV3) VerdictFor(clientIP string) Verdict {
	if v, ok := r.log.lookup(clientIP); ok {
		return v
	}
	return Verdict{Bot: true, Reasons: []string{"no-score-request"}}
}
