package botdetect

import (
	"strings"

	"crawlerbox/internal/webnet"
)

// AnonWAF is the commercial-style Web Application Firewall from the paper's
// Table I (its real name is under legal restriction there). It fronts an
// origin server: the first request from a client receives an interstitial
// JavaScript challenge; passing it sets a clearance cookie that admits
// subsequent requests. Independently of the challenge, every request's
// network surface (TLS fingerprint, header completeness, UA coherence) is
// inspected.
//
// Compared with Turnstile, the WAF's client-side probe is lighter — it does
// not check driver-binary leftovers or plugin-table authenticity — which is
// exactly why undetected_chromedriver passes AnonWAF while failing
// Turnstile, reproducing the paper's matrix.
type AnonWAF struct {
	host string
	log  *verdictLog
}

// ClearanceCookie is the cookie name carrying WAF clearance.
const ClearanceCookie = "__waf_clearance"

// NewAnonWAF returns a WAF guarding the given host. Wrap the origin handler
// with Wrap before serving.
func NewAnonWAF(host string) *AnonWAF {
	return &AnonWAF{host: host, log: newVerdictLog()}
}

// Wrap returns a handler enforcing the WAF in front of origin.
func (w *AnonWAF) Wrap(origin webnet.Handler) webnet.Handler {
	return func(req *webnet.Request) *webnet.Response {
		reasons := headerChecks(req, true)
		if len(reasons) > 0 {
			w.log.record(req.ClientIP, Verdict{Bot: true, Reasons: reasons})
			return &webnet.Response{Status: 403, Body: []byte("Access denied\n" + jsonReasons(reasons))}
		}
		if req.Path == "/__waf/clear" {
			return w.handleClear(req)
		}
		if !strings.Contains(req.Header("Cookie"), ClearanceCookie+"=granted") {
			// Interstitial challenge page.
			return &webnet.Response{Status: 200,
				Headers: map[string]string{"Content-Type": "text/html"},
				Body:    []byte(w.interstitial(req))}
		}
		w.log.record(req.ClientIP, Verdict{Bot: false})
		return origin(req)
	}
}

// handleClear validates the posted challenge signals and grants clearance.
func (w *AnonWAF) handleClear(req *webnet.Request) *webnet.Response {
	reasons := headerChecks(req, true)
	if idx := strings.Index(req.Body, `"reasons":"`); idx >= 0 {
		rest := req.Body[idx+len(`"reasons":"`):]
		if end := strings.IndexByte(rest, '"'); end >= 0 && rest[:end] != "" {
			reasons = append(reasons, strings.Split(rest[:end], ",")...)
		}
	}
	v := Verdict{Bot: len(reasons) > 0, Reasons: reasons}
	w.log.record(req.ClientIP, v)
	if v.Bot {
		return &webnet.Response{Status: 403, Body: []byte(jsonReasons(reasons))}
	}
	return &webnet.Response{Status: 200,
		Headers: map[string]string{"Set-Cookie": ClearanceCookie + "=granted; Path=/"},
		Body:    []byte("cleared")}
}

// interstitial returns the challenge page: collect signals, post them, and
// reload the original URL once clearance is granted.
func (w *AnonWAF) interstitial(req *webnet.Request) string {
	original := req.Path
	if req.RawQuery != "" {
		original += "?" + req.RawQuery
	}
	return `<html><body>
<p>Please wait while we verify your browser...</p>
<script>
var reasons = [];
if (navigator.webdriver) { reasons.push("webdriver"); }
if (navigator.userAgent.indexOf("HeadlessChrome") >= 0) { reasons.push("headless-ua"); }
if (typeof cdc_adoQpoasnfa76pfcZLmcfl_Array !== "undefined") { reasons.push("cdc-artifact"); }
var canvas = document.createElement("canvas");
var gl = canvas.getContext("webgl");
var renderer = "";
if (gl && gl.getParameter) { renderer = "" + gl.getParameter(37446); }
if (renderer === "" || renderer.indexOf("SwiftShader") >= 0) { reasons.push("software-gl"); }
var xhr = new XMLHttpRequest();
xhr.open("POST", "https://` + w.host + `/__waf/clear", false);
xhr.send(JSON.stringify({reasons: reasons.join(",")}));
if (xhr.status === 200) {
	document.setCookie("` + ClearanceCookie + `=granted");
	location.href = "` + original + `";
}
</script>
</body></html>`
}

// VerdictFor returns the last verdict for a client (from the WAF's logs,
// the way the paper's authors checked). Absent clients read as bots: they
// never passed the interstitial.
func (w *AnonWAF) VerdictFor(clientIP string) Verdict {
	if v, ok := w.log.lookup(clientIP); ok {
		return v
	}
	return Verdict{Bot: true, Reasons: []string{"no-clearance"}}
}
