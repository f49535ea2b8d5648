package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
)

// buildPipeline deploys a fresh world for the seed and assembles the
// pipeline exactly as `crawlerboxd` does: default stages, no observer, no
// resilience, and one reference page per protected brand in sorted order.
// Analyses mutate world state, so every timed pass calls this anew.
func buildPipeline(ctx context.Context, seed int64, scale float64) (*crawlerbox.Pipeline, error) {
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	brands := make([]string, 0, len(c.BrandURLs))
	for b := range c.BrandURLs {
		brands = append(brands, b)
	}
	sort.Strings(brands)
	for _, b := range brands {
		if err := pipe.AddReference(ctx, b, c.BrandURLs[b]); err != nil {
			return nil, fmt.Errorf("reference %s: %w", b, err)
		}
	}
	return pipe, nil
}

// corpusSpecs renders the seed's corpus into ingest specs: IDs 1..N in
// delivery order, analysed two hours after delivery. This is the same
// spec sequence `crawlerboxd -record` writes and `report.Analyze` feeds
// its executor.
func corpusSpecs(seed int64, scale float64) ([]ingest.Spec, error) {
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	specs := make([]ingest.Spec, 0, c.Len())
	c.Each(func(i int, m *dataset.Message) bool {
		specs = append(specs, ingest.Spec{ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour), Raw: m.Raw})
		return true
	})
	return specs, nil
}

// writeLog records specs into an ingest log. done, when non-nil, adds a
// done record after each spec that has one: the log then reads as the
// journal of a daemon that already emitted those verdicts.
func writeLog(path string, specs []ingest.Spec, done map[int64]ingest.Emitted) error {
	log, err := ingest.CreateLog(path)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if err := log.AppendSpec(s); err != nil {
			log.Close()
			return err
		}
		if e, ok := done[s.ID]; ok {
			if err := log.AppendDone(e); err != nil {
				log.Close()
				return err
			}
		}
	}
	return log.Close()
}

// referenceReplay runs a log through ingest.Replay on a fresh world with
// one worker and the cache on: the verdicts every other path is checked
// against. It also returns what the replay allocated.
func referenceReplay(ctx context.Context, logPath string, seed int64, scale float64) (*ingest.Result, memSnap, error) {
	pipe, err := buildPipeline(ctx, seed, scale)
	if err != nil {
		return nil, memSnap{}, err
	}
	m0 := readMem()
	res, err := ingest.Replay(ctx, logPath, pipe, ingest.PipelineKeyer(pipe), ingest.WithWorkers(1))
	m1 := readMem()
	return res, memSnap{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes}, err
}

// rereports builds the rereport submissions: every original message that
// the reference run keyed (it has a landing URL) is reported again by 1 to
// 4 further recipients. Each copy gets a fresh ID and its own To: header,
// so no two submissions are byte-identical, and the copies arrive in an
// order shuffled by the seed. firstID is the first unused ID. The map gives
// each copy's original.
func rereports(seed int64, originals []ingest.Spec, ref *ingest.Result, firstID int64) ([]ingest.Spec, map[int64]int64) {
	keyed := map[int64]bool{}
	for _, e := range ref.Emitted {
		if e.Key != "" {
			keyed[e.ID] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []ingest.Spec
	var from []int64
	for _, s := range originals {
		if !keyed[s.ID] {
			continue
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			out = append(out, ingest.Spec{At: s.At, Raw: withRecipient(s.Raw, fmt.Sprintf("recipient%d@corp.example", len(out)))})
			from = append(from, s.ID)
		}
	}
	rng.Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
		from[i], from[j] = from[j], from[i]
	})
	origin := make(map[int64]int64, len(out))
	for i := range out {
		out[i].ID = firstID + int64(i)
		origin[out[i].ID] = from[i]
	}
	return out, origin
}

// withRecipient returns a copy of raw with the value of its first To:
// header replaced.
func withRecipient(raw []byte, to string) []byte {
	start := 0
	for start < len(raw) {
		end := bytes.IndexByte(raw[start:], '\n')
		if end < 0 {
			break
		}
		line := raw[start : start+end]
		if len(bytes.TrimRight(line, "\r")) == 0 {
			break // end of the header block
		}
		if bytes.HasPrefix(line, []byte("To:")) {
			cr := ""
			if bytes.HasSuffix(line, []byte("\r")) {
				cr = "\r"
			}
			out := make([]byte, 0, len(raw)+len(to))
			out = append(out, raw[:start]...)
			out = append(out, "To: "+to+cr...)
			return append(out, raw[start+end:]...)
		}
		start += end + 1
	}
	return append([]byte(nil), raw...)
}
