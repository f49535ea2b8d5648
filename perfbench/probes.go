package main

import (
	"hash/fnv"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/minijs"
)

// sampleEvery is the stride of the messages whose screenshots and visit
// records a traced pass keeps for the probes: holding every message's
// evidence would dominate the process's memory.
const sampleEvery = 8

// capture collects, during a traced pass, the inputs the re-timed probes
// replay afterwards.
type capture struct {
	raws     [][]byte // every submitted message, as the keyer saw it
	scripts  []string // every script a visit ran
	distinct map[uint64]bool
	htmls    []string // every visited document
	signs    int      // screenshots classify signed
	shots    []*imaging.Image
	visits   [][]crawlerbox.VisitRecord
	sampled  int // messages the shots and visits were taken from
	seen     int
}

func (c *capture) analysis(ma *crawlerbox.MessageAnalysis) {
	if c.distinct == nil {
		c.distinct = map[uint64]bool{}
	}
	for _, v := range ma.Visits {
		if v.Result == nil {
			continue
		}
		for _, s := range v.Result.Scripts {
			h := fnv.New64a()
			h.Write([]byte(s))
			c.distinct[h.Sum64()] = true
		}
		c.scripts = append(c.scripts, v.Result.Scripts...)
		if v.Result.HTML != "" {
			c.htmls = append(c.htmls, v.Result.HTML)
		}
	}
	// classify signs the first credential-form screenshot of an active
	// phishing verdict (crawlerbox.Pipeline.classifySpearPhish).
	var shot *imaging.Image
	if ma.Outcome == crawlerbox.OutcomeActivePhish {
		for i := range ma.Visits {
			if crawlerbox.FactOf(&ma.Visits[i]).Class == crawlerbox.FactPhishForm {
				shot = ma.Visits[i].Result.Screenshot
				break
			}
		}
	}
	if shot != nil {
		c.signs++
	}
	if c.seen%sampleEvery == 0 {
		c.sampled++
		c.visits = append(c.visits, ma.Visits)
		if shot != nil {
			c.shots = append(c.shots, shot)
		}
	}
	c.seen++
}

// probeSink keeps probe results reachable so the calls cannot be dropped.
var probeSink int

// timeEach runs fn over n inputs, repeating the whole set until at least
// minProbe has passed, and returns the mean ns per full set.
func timeEach(n int, fn func(i int)) float64 {
	const minProbe = 150 * time.Millisecond
	if n == 0 {
		return 0
	}
	start := time.Now()
	rounds := 0
	for time.Since(start) < minProbe || rounds == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds++
	}
	return float64(time.Since(start)) / float64(rounds)
}

// probeMetrics re-times the layers the pipeline gives no hook for, by
// calling their public entry points on the captured inputs. msgs is the
// number of submitted messages the per-message figures divide by.
func (c *capture) probeMetrics(msgs int) map[string]float64 {
	m := map[string]float64{}
	perMsg := func(ns float64) float64 { return ns / 1e3 / float64(msgs) }

	m["minijs.scripts_per_msg"] = float64(len(c.scripts)) / float64(msgs)
	if len(c.scripts) > 0 {
		m["minijs.distinct_script_ratio"] = float64(len(c.distinct)) / float64(len(c.scripts))
	}
	m["minijs.parse_us_per_msg"] = perMsg(timeEach(len(c.scripts), func(i int) {
		if p, err := minijs.Parse(c.scripts[i]); err == nil && p != nil {
			probeSink++
		}
	}))
	m["htmlx.parse_us_per_msg"] = perMsg(timeEach(len(c.htmls), func(i int) {
		if htmlx.Parse(c.htmls[i]) != nil {
			probeSink++
		}
	}))
	m["mime.parse_us_per_msg"] = perMsg(timeEach(len(c.raws), func(i int) {
		if p, err := mime.Parse(c.raws[i]); err == nil && p != nil {
			probeSink++
		}
	}))
	m["imaging.signs_per_msg"] = float64(c.signs) / float64(msgs)
	if len(c.shots) > 0 {
		m["imaging.sign_us_per_call"] = timeEach(len(c.shots), func(i int) {
			probeSink += int(imaging.Sign(c.shots[i]).PHash & 1)
		}) / 1e3 / float64(len(c.shots))
	}
	if c.sampled > 0 {
		m["evstore.encode_us_per_msg"] = timeEach(len(c.visits), func(i int) {
			probeSink += len(crawlerbox.EncodeEvidence(c.visits[i]))
		}) / 1e3 / float64(c.sampled)
	}
	return m
}
