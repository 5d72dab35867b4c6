package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The job service is timed on the wall clock, and on the benchmark host
// its jobs slow with everything other tenants do: a share of the CPU
// taken by the hypervisor, slower syscalls, a busy disk. The host's
// steal time reached 30% for minutes at a time, and jobs then took twice
// as long at the median and nearly three times as long at p95, while the
// CPU-time reference kernel did not move, since thread CPU time leaves
// the stolen time out.
//
// So the service's yardstick is a reference job: a slice of the
// reference kernel followed by the calls a benchmark job makes — three
// POSTs over loopback HTTP that a fixed handler appends to a file and
// fsyncs, then one more request — served by refService, which belongs to
// the benchmark, not to the program. A host that steals time, slows
// syscalls or delays fsyncs slows reference jobs as it slows real ones,
// in the median and in the tail alike. Job latency percentiles are
// scaled by the same percentile of the reference jobs, and rates by
// their median.

const (
	// refJobsPerBreak is how many reference jobs run in each break
	// between slices of the timed session.
	refJobsPerBreak = 10
	// refJobP50Nominal and refJobP95Nominal are the reference jobs'
	// median and p95 in milliseconds on the reference host in a quiet
	// minute. They only set the scale of the reported figures, so that
	// they read close to milliseconds there.
	refJobP50Nominal = 15.0
	refJobP95Nominal = 20.0
)

// refService is a fixed HTTP handler on a loopback port.
type refService struct {
	f      *os.File
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

var (
	refBody  = bytes.Repeat([]byte("r"), 200)
	refReply = bytes.Repeat([]byte("s"), 2048)
)

func startRefService(dir string) (*refService, error) {
	f, err := os.OpenFile(filepath.Join(dir, "refservice.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &refService{
		f:      f,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	r.hs = &http.Server{Handler: http.HandlerFunc(r.handle)}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// handle appends a request's body, if any, to the file and fsyncs it.
func (r *refService) handle(w http.ResponseWriter, req *http.Request) {
	b, err := io.ReadAll(req.Body)
	if err == nil && len(b) > 0 {
		if _, err = r.f.Write(b); err == nil {
			err = r.f.Sync()
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(refReply)
}

func (r *refService) call(body []byte) error {
	resp, err := r.client.Post(r.base+"/", "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reference service: status %s", resp.Status)
	}
	return nil
}

// jobs runs n reference jobs after a GC and appends the wall time of
// each, in milliseconds, to into.
func (r *refService) jobs(n int, into *[]float64) error {
	runtime.GC()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		refKernel(0.05)
		for j := 0; j < 3; j++ {
			if err := r.call(refBody); err != nil {
				return err
			}
		}
		if err := r.call(nil); err != nil {
			return err
		}
		*into = append(*into, ms(time.Since(t0)))
	}
	return nil
}

// close stops the listener, waits for the serve loop to return, and
// closes the file.
func (r *refService) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
