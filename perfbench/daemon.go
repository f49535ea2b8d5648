package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crawlerbox/internal/ingest"
)

// latencyLimit is the daemon's verdict latency limit: a verdict not seen
// within this long of its submission is a miss.
const latencyLimit = time.Second

// daemon is one running `crawlerboxd -serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed when stdout is drained
	setup  time.Duration // exec to the first /api/stats answer
}

// startDaemon execs the daemon with one analysis worker and a fresh
// journal, and waits until /api/stats answers.
func startDaemon(ctx context.Context, o options, journal string, client *http.Client) (*daemon, error) {
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(o.bin, "crawlerboxd"), "-serve", "127.0.0.1:0", "-log", journal,
		"-workers", "1", "-seed", strconv.FormatInt(o.seed, 10), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "crawlerboxd: ingest API on "); ok {
				a, _, _ := strings.Cut(rest, ",")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("crawlerboxd exited before listening: %s", d.stderr.String())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("crawlerboxd did not start listening within 60s")
	}
	for {
		resp, err := client.Get(d.base + "/api/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("crawlerboxd /api/stats did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop shuts the daemon down with SIGTERM (it drains and exits) and waits
// for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reported by Wait
	<-d.done
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("crawlerboxd: %v: %s", err, d.stderr.String())
	}
	return nil
}

// callResult is one pass of the calling client over a daemon.
type callResult struct {
	submitted, refused, missing int
	latencyMS                   []float64 // one per submission; a miss counts at the limit
	wallS                       float64   // from the first submission to the last verdict
	rate                        float64   // verdicts seen per second of the pass
	got                         map[int64]ingest.Emitted
	submits, polls              []span // one per request, traced passes only
}

// callLoop submits the bodies in order, one caller on one connection:
// each submission waits until the previous verdict was seen, polling
// /api/verdict every pollGap. Latency runs from the start of a submission
// to when its verdict was seen.
func callLoop(client *http.Client, base string, bodies [][]byte, ids []int64, traced bool) (*callResult, error) {
	// The client allocates little during the pass: with its collector off
	// it cannot pause the caller, and on one thread it leaves the other CPU
	// to the daemon.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pollGap = 100 * time.Microsecond
	limitMS := float64(latencyLimit) / 1e6
	r := &callResult{got: map[int64]ingest.Emitted{}, latencyMS: make([]float64, 0, len(bodies))}
	start := time.Now()
	since := func(t time.Time) int64 { return int64(t.Sub(start)) }
	last := start
	for i, body := range bodies {
		sent := time.Now()
		resp, err := client.Post(base+"/api/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if traced {
			r.submits = append(r.submits, span{Name: "daemon.submit", Start: since(sent), End: since(time.Now()), Parent: -1, Msg: ids[i]})
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			r.submitted++
		case http.StatusServiceUnavailable:
			r.refused++
			r.latencyMS = append(r.latencyMS, limitMS)
			continue
		default:
			return nil, fmt.Errorf("submit %d: HTTP %d", ids[i], resp.StatusCode)
		}
		for {
			t0 := time.Now()
			e, ok, err := pollVerdict(client, base, ids[i])
			if traced {
				r.polls = append(r.polls, span{Name: "daemon.poll", Start: since(t0), End: since(time.Now()), Parent: -1, Msg: ids[i]})
			}
			if err != nil {
				return nil, err
			}
			if ok {
				last = time.Now()
				r.got[ids[i]] = e
				r.latencyMS = append(r.latencyMS, float64(last.Sub(sent))/1e6)
				break
			}
			if time.Since(sent) > latencyLimit {
				r.missing++
				r.latencyMS = append(r.latencyMS, limitMS)
				break
			}
			time.Sleep(pollGap)
		}
	}
	r.wallS = last.Sub(start).Seconds()
	r.rate = float64(len(r.got)) / r.wallS
	return r, nil
}

// pollVerdict asks the daemon for one message's verdict.
func pollVerdict(client *http.Client, base string, id int64) (ingest.Emitted, bool, error) {
	var e ingest.Emitted
	resp, err := client.Get(base + "/api/verdict?id=" + strconv.FormatInt(id, 10))
	if err != nil {
		return e, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return e, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return e, false, fmt.Errorf("verdict %d: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return e, false, fmt.Errorf("verdict %d: %w", id, err)
	}
	io.Copy(io.Discard, resp.Body) // the trailing newline, so the connection is reused
	return e, true, nil
}
