// Command crawlerboxd is the continuous-ingest daemon: the service mode of
// the CrawlerBox pipeline. Reported message specs stream in over HTTP (or
// from a canned ingest log), pass through a verdict dedup cache
// keyed by canonical landing URL, and run the full analysis pipeline on
// miss — every accepted spec and emitted verdict journals to an
// append-only ingest log, so a killed daemon resumes where it stopped
// without losing or re-analyzing work.
//
// The world the daemon analyzes against is the same deterministic
// simulation the batch tools use: -seed and -scale must match the corpus
// the submitted messages were generated from.
//
// Usage:
//
//	crawlerboxd -record FILE -n N [-seed N] [-scale F]
//	crawlerboxd -replay FILE [-out FILE] [-workers N] [-cache=false]
//	            [-trace FILE] [-metrics FILE] [-tracestore FILE]
//	crawlerboxd -serve ADDR -log FILE [-workers N] [-max-pending N]
//
// -record writes a canned spec-only ingest log from the generated corpus
// (the daemon-shaped replacement for a batch corpus run). -replay runs a
// log to completion against a fresh world and writes the canonical
// verdict stream — byte-identical for any -workers value, and identical
// across a kill and resume — plus the -trace, -metrics, and -tracestore
// exports after the drain. Output-file flags a mode would never write are
// rejected: -evidence in every mode, and -trace, -metrics, and -tracestore
// outside -replay (a daemon's buffered traces would grow with its uptime).
// -serve exposes the ingest API over HTTP:
//
//	POST /api/submit      — submit one spec {"id":N,"at":RFC3339,"raw":BASE64};
//	                        409 if the ID was already submitted
//	GET  /api/stats       — counters + pending depth (JSON)
//	GET  /api/verdict?id=N — the emitted verdict for one message (JSON)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crawlerbox/internal/climain"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crawlerboxd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crawlerboxd", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "world/corpus seed (must match the corpus the messages came from)")
	scale := fs.Float64("scale", 0.1, "world/corpus scale (must match the corpus the messages came from)")
	record := fs.String("record", "", "write a canned spec-only ingest log from the corpus to FILE and exit")
	limit := fs.Int("n", 0, "record mode: number of corpus messages to record (0 = all)")
	replay := fs.String("replay", "", "replay the ingest log at FILE to completion and exit")
	out := fs.String("out", "", "replay mode: write the canonical verdict stream to FILE (default stdout)")
	serve := fs.String("serve", "", "serve the ingest API over HTTP on this address (e.g. :8080)")
	logPath := fs.String("log", "", "serve mode: journal accepted specs and emitted verdicts to FILE (resumes if it exists)")
	maxPending := fs.Int("max-pending", 0, "serve mode: shed submissions with 503 when this many are in flight (0 = never shed)")
	cache := fs.Bool("cache", true, "dedup verdicts through the verdict cache (verdict outcomes are identical either way)")
	shared := climain.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectUnwritten(fs, *replay != ""); err != nil {
		return err
	}

	switch {
	case *record != "":
		return recordLog(*record, *seed, *scale, *limit, w)
	case *replay != "":
		return replayLog(*replay, *out, *seed, *scale, *cache, shared, w)
	case *serve != "":
		return serveIngest(*serve, *logPath, *seed, *scale, *maxPending, *cache, shared, w)
	}
	return errors.New("one of -record, -replay, or -serve is required")
}

// rejectUnwritten fails when the command line sets a shared output-file
// flag the selected mode would never write: -evidence in every mode (the
// daemon keeps no evidence store), and -trace, -metrics, and -tracestore
// unless replaying.
func rejectUnwritten(fs *flag.FlagSet, replaying bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case f.Name == "evidence":
			err = errors.New("-evidence is not supported: crawlerboxd keeps no evidence store")
		case !replaying && (f.Name == "trace" || f.Name == "metrics" || f.Name == "tracestore"):
			err = fmt.Errorf("-%s is only supported with -replay", f.Name)
		}
	})
	return err
}

// recordLog writes the canned ingest log a batch corpus run would have
// submitted: one spec per message, IDs sequential, analysis time two hours
// after delivery (the paper's reporting lag).
func recordLog(path string, seed int64, scale float64, limit int, w io.Writer) error {
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	log, err := ingest.CreateLog(path)
	if err != nil {
		return err
	}
	n := 0
	c.Each(func(i int, m *dataset.Message) bool {
		if limit > 0 && i >= limit {
			return false
		}
		if err2 := log.AppendSpec(ingest.Spec{
			ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour), Raw: m.Raw,
		}); err2 != nil {
			err = err2
			return false
		}
		n++
		return true
	})
	if err != nil {
		log.Close()
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d specs to %s\n", n, path)
	return nil
}

// replayLog runs an ingest log to completion against a fresh world: the
// batch mode of the service API. The verdict stream and the printed
// counters are byte-identical for any worker count.
func replayLog(path, out string, seed int64, scale float64, cache bool,
	shared *climain.Flags, w io.Writer) error {
	ctx := context.Background()
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	observer := shared.Observer()
	pipe, err := report.NewPipeline(ctx, c, observer, shared.Policy())
	if err != nil {
		return err
	}
	res, err := ingest.Replay(ctx, path, pipe, ingest.PipelineKeyer(pipe),
		ingest.WithWorkers(*shared.Workers),
		ingest.WithCache(cache))
	if err != nil {
		return err
	}
	dst := w
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := res.WriteVerdictStream(dst); err != nil {
		return err
	}
	if *shared.TraceStore != "" {
		if err := res.WriteTraceStore(*shared.TraceStore, observer.Traces(), observer.Metrics.Snapshot()); err != nil {
			return err
		}
	}
	if err := shared.WriteExports(observer); err != nil {
		return err
	}
	printCounters(w, res.Counters)
	return nil
}

// printCounters renders the final counters as one canonical JSON line.
func printCounters(w io.Writer, c ingest.Counters) {
	line, _ := json.Marshal(c)
	fmt.Fprintf(w, "counters: %s\n", line)
}

// serveIngest runs the HTTP daemon: recover the journal (if any), serve
// the ingest API until SIGINT/SIGTERM, then drain and report.
func serveIngest(addr, logPath string, seed int64, scale float64, maxPending int,
	cache bool, shared *climain.Flags, w io.Writer) error {
	if logPath == "" {
		return errors.New("-serve requires -log FILE (the ingest journal)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	pipe, err := report.NewPipeline(ctx, c, nil, shared.Policy())
	if err != nil {
		return err
	}

	// A pre-existing journal is continued: Resume replays its done
	// records and re-enqueues its unfinished specs.
	_, statErr := os.Stat(logPath)
	resume := statErr == nil
	var log *ingest.Log
	if resume {
		log, err = ingest.OpenLog(logPath)
	} else {
		log, err = ingest.CreateLog(logPath)
	}
	if err != nil {
		return err
	}

	svc := ingest.NewService(pipe, ingest.PipelineKeyer(pipe), log,
		ingest.WithWorkers(*shared.Workers),
		ingest.WithMaxPending(maxPending),
		ingest.WithCache(cache))
	svc.Start(ctx)
	if resume {
		if err := svc.Resume(ctx, logPath); err != nil {
			svc.Drain()
			return err
		}
		counters, _ := svc.Stats()
		fmt.Fprintf(w, "resumed %d verdicts, %d specs re-enqueued from %s\n",
			counters.Resumed, counters.Submitted-counters.Resumed, logPath)
	}

	srv, err := climain.NewHTTPServer(addr, daemonMux(svc))
	if err != nil {
		svc.Drain()
		return err
	}
	fmt.Fprintf(w, "crawlerboxd: ingest API on %s, journal %s\n", srv.Addr(), logPath)
	if err := srv.Run(ctx); err != nil {
		svc.Drain()
		return err
	}
	res, err := svc.Drain()
	if err != nil {
		return err
	}
	printCounters(w, res.Counters)
	return nil
}

// maxSubmitBytes caps one /api/submit body. A spec carries its message
// base64-encoded, a third larger than the message itself; the largest
// corpus message is about 110 KB, and 32 MiB also admits a 24 MB message,
// the attachment limit of common mail providers.
const maxSubmitBytes = 32 << 20

// daemonMux builds the ingest API. Split from serveIngest so the endpoint
// behavior is testable with httptest against a real service.
func daemonMux(svc *ingest.Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "crawlerbox ingest daemon\n\nendpoints:\n"+
			"  POST /api/submit      {\"id\":N,\"at\":RFC3339,\"raw\":BASE64}\n"+
			"  GET  /api/stats\n"+
			"  GET  /api/verdict?id=N\n")
	})
	mux.HandleFunc("/api/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			climain.HTTPError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var spec ingest.Spec
		body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				climain.HTTPError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("spec larger than %d bytes", maxSubmitBytes))
				return
			}
			climain.HTTPError(w, http.StatusBadRequest, "bad spec: "+err.Error())
			return
		}
		if spec.ID <= 0 || len(spec.Raw) == 0 {
			climain.HTTPError(w, http.StatusBadRequest, "spec needs a positive id and non-empty raw")
			return
		}
		switch err := svc.Submit(r.Context(), spec); {
		case err == nil:
			w.WriteHeader(http.StatusAccepted)
			climain.WriteJSON(w, map[string]int64{"accepted": spec.ID})
		case errors.Is(err, ingest.ErrOverloaded), errors.Is(err, ingest.ErrDraining):
			climain.HTTPError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ingest.ErrDuplicateID):
			climain.HTTPError(w, http.StatusConflict, err.Error())
		default:
			climain.HTTPError(w, http.StatusInternalServerError, err.Error())
		}
	})
	mux.HandleFunc("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		counters, pending := svc.Stats()
		climain.WriteJSON(w, map[string]any{"counters": counters, "pending": pending})
	})
	mux.HandleFunc("/api/verdict", func(w http.ResponseWriter, r *http.Request) {
		id, ok := climain.IDParam(w, r)
		if !ok {
			return
		}
		e, ok := svc.Emission(id)
		if !ok {
			climain.HTTPError(w, http.StatusNotFound,
				fmt.Sprintf("message %d: no verdict emitted yet", id))
			return
		}
		climain.WriteJSON(w, e)
	})
	return mux
}
