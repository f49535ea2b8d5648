package botdetect

import (
	"fmt"
	"strings"
	"sync"

	"crawlerbox/internal/webnet"
)

// Turnstile is the advanced JavaScript-challenge service. A protected site
// embeds its challenge script; the script gathers signals and posts them to
// /verify; human-looking clients receive a single-use clearance token that
// the protected site validates server-to-server with ValidToken.
//
// The paper found Turnstile guarding 74.4% of credential-harvesting
// phishing messages — attackers use the same free tooling defenders do.
type Turnstile struct {
	host string
	// script is the challenge script, built once; body holds its bytes,
	// which every /challenge.js response shares (see scriptResponse).
	script    string
	body      []byte
	log       *verdictLog
	mu        sync.Mutex
	tokens    map[string]bool // guarded by mu
	nextToken int             // guarded by mu
}

// NewTurnstile installs the service on the network.
func NewTurnstile(net *webnet.Internet, host string) *Turnstile {
	t := &Turnstile{host: host, script: turnstileScript(host), log: newVerdictLog(), tokens: map[string]bool{}}
	t.body = []byte(t.script)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		switch req.Path {
		case "/challenge.js":
			return scriptResponse(t.body)
		case "/verify":
			return t.handleVerify(req)
		default:
			return &webnet.Response{Status: 404}
		}
	})
	return t
}

// Host returns the service host name.
func (t *Turnstile) Host() string { return t.host }

// Script returns the challenge script. It defines __turnstileRun(), which
// posts the signal bundle and invokes the global __turnstileDone callback
// with the token ("" on failure).
func (t *Turnstile) Script() string { return t.script }

// turnstileScript builds the challenge script of the service at host.
func turnstileScript(host string) string {
	return `
	function __turnstileCollect() {
		var reasons = [];
		if (navigator.webdriver) { reasons.push("webdriver"); }
		if (navigator.userAgent.indexOf("HeadlessChrome") >= 0) { reasons.push("headless-ua"); }
		if (typeof cdc_adoQpoasnfa76pfcZLmcfl_Array !== "undefined") { reasons.push("cdc-artifact"); }
		if (typeof __driverEvaluateHook !== "undefined") { reasons.push("driver-binary"); }
		if (window["$chrome_asyncScriptInfo"]) { reasons.push("driver-binary"); }
		// Headless rendering stack: software WebGL or none at all.
		var canvas = document.createElement("canvas");
		var gl = canvas.getContext("webgl");
		var renderer = "";
		if (gl && gl.getParameter) { renderer = "" + gl.getParameter(37446); }
		if (renderer === "" || renderer.indexOf("SwiftShader") >= 0) { reasons.push("software-gl"); }
		// Stealth plugins fake the plugin table with generic names.
		if (navigator.plugins.length === 0) {
			reasons.push("no-plugins");
		} else if (navigator.plugins[0].name.indexOf("PDF") < 0) {
			reasons.push("fake-plugins");
		}
		// Environment coherence.
		if (!navigator.cookieEnabled) { reasons.push("cookies-off"); }
		if (screen.width === 0 || screen.height === 0) { reasons.push("no-screen"); }
		if (navigator.languages.length === 0) { reasons.push("no-languages"); }
		// Timing quantization: virtualized clocks are coarse.
		var t0 = performance.now();
		var acc = 0;
		for (var i = 0; i < 60; i++) { acc += i; }
		var t1 = performance.now();
		var d = t1 - t0;
		if (d === 0 || d >= 10) { reasons.push("quantized-clock"); }
		return reasons;
	}
	function __turnstileRun(done) {
		var reasons = __turnstileCollect();
		var xhr = new XMLHttpRequest();
		xhr.open("POST", "https://` + host + `/verify", false);
		xhr.send(JSON.stringify({reasons: reasons.join(",")}));
		var token = "";
		if (xhr.status === 200 && xhr.responseText.indexOf("token:") === 0) {
			token = xhr.responseText.slice(6);
		}
		if (done) { done(token); }
		return token;
	}
	`
}

// handleVerify combines the posted client signals with server-visible
// request attributes and issues a token for human-looking clients.
func (t *Turnstile) handleVerify(req *webnet.Request) *webnet.Response {
	reasons := headerChecks(req, true)
	if idx := strings.Index(req.Body, `"reasons":"`); idx >= 0 {
		rest := req.Body[idx+len(`"reasons":"`):]
		if end := strings.IndexByte(rest, '"'); end >= 0 && rest[:end] != "" {
			reasons = append(reasons, strings.Split(rest[:end], ",")...)
		}
	}
	v := Verdict{Bot: len(reasons) > 0, Reasons: reasons}
	t.log.record(req.ClientIP, v)
	if v.Bot {
		return &webnet.Response{Status: 403, Body: []byte(jsonReasons(reasons))}
	}
	t.mu.Lock()
	t.nextToken++
	token := fmt.Sprintf("cf-tok-%06d", t.nextToken)
	t.tokens[token] = true
	t.mu.Unlock()
	return &webnet.Response{Status: 200, Body: []byte("token:" + token)}
}

// ValidToken redeems a clearance token (single use), the server-to-server
// validation a protected site performs.
func (t *Turnstile) ValidToken(token string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.tokens[token] {
		return false
	}
	delete(t.tokens, token)
	return true
}

// VerdictFor returns the last verdict for a client; absent means the client
// never completed the challenge (no JS) and reads as a bot.
func (t *Turnstile) VerdictFor(clientIP string) Verdict {
	if v, ok := t.log.lookup(clientIP); ok {
		return v
	}
	return Verdict{Bot: true, Reasons: []string{"no-challenge-response"}}
}

// GateHTML wraps a target URL behind the Turnstile challenge: the visitor
// loads the gate, the challenge runs, and on success the browser navigates
// to the target with the clearance token appended as tokenParam. The URL
// fragment is preserved across the hop (kits do this so victim tokens in
// the hash survive the challenge).
func (t *Turnstile) GateHTML(targetPath, tokenParam string) string {
	sep := "?"
	if strings.Contains(targetPath, "?") {
		sep = "&"
	}
	return `<html><head>
<script src="https://` + t.host + `/challenge.js"></script>
</head><body>
<div style="background:#f5f5f5;height:40px">Checking your browser before accessing this site...</div>
<script>
__turnstileRun(function(token) {
	if (token !== "") {
		location.href = "` + targetPath + sep + tokenParam + `=" + token + location.hash;
	}
});
</script>
</body></html>`
}
