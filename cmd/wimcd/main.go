// Command wimcd is the wimc experiment service: a long-running HTTP/JSON
// daemon that accepts canonical experiment specs (internal/spec), runs
// their points on the deterministic engine pool, streams per-point
// progress as NDJSON, and caches every Result in a content-addressed
// on-disk store — so resubmitting a spec whose results exist costs zero
// engine runs, and editing one axis point recomputes only that point.
//
// Usage:
//
//	wimcd -addr :8585 -store .wimcd [-debug-addr 127.0.0.1:8586]
//
// -debug-addr (off by default) serves net/http/pprof on a separate
// listener, so a long sweep can be CPU- or heap-profiled in flight
// without exposing the profiler on the API address.
//
// See internal/daemon for the API surface and wimcctl for the client.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on http.DefaultServeMux
	"os"
	"time"

	"wimc/internal/daemon"
	"wimc/internal/engine"
	"wimc/internal/store"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request header. Without it, a client that connects and sends nothing
// holds a connection and a goroutine forever. Neither listener sets a
// write timeout: a job's NDJSON progress stream lasts as long as the job.
const readHeaderTimeout = 10 * time.Second

// newServer returns an HTTP server for handler h on addr that closes a
// connection whose request header takes longer than headerTimeout.
func newServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wimcd: ")
	addr := flag.String("addr", "127.0.0.1:8585", "listen address")
	storeDir := flag.String("store", ".wimcd", "content-addressed result store directory")
	workers := flag.Int("workers", 0, "default worker pool size per experiment (0 = one per core; a spec's workers field overrides)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra address (empty = disabled)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wimcd [flags]\n\nThe wimc experiment service (engine %s).\n\n", engine.Version)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	n, err := st.Len()
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		// The pprof handlers live on http.DefaultServeMux (blank import
		// above); the API server below uses its own handler, so the
		// profiler is reachable only through this listener.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			log.Fatal(newServer(*debugAddr, nil, readHeaderTimeout).ListenAndServe())
		}()
	}
	log.Printf("engine %s, store %s (%d cached results), listening on %s",
		engine.Version, st.Dir(), n, *addr)
	log.Fatal(newServer(*addr, daemon.NewServer(st, *workers), readHeaderTimeout).ListenAndServe())
}
