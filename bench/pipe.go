package main

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// pipeListener is an in-memory net.Listener: every dial hands the server
// one end of a net.Pipe. The service is reached over it rather than over
// loopback TCP so that a request is Go code only. Over loopback, each
// client-server handoff can park the thread in the kernel, and how long
// the wake-up takes depends on the host's other tenants: on a shared
// 2-vCPU host it made warm requests bimodal and their per-run median
// drift by half between runs.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects a client to the listener.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
	case <-ctx.Done():
	}
	client.Close()
	server.Close()
	return nil, net.ErrClosed
}

// client is an HTTP client whose connections dial the listener.
func (l *pipeListener) client() *http.Client {
	return &http.Client{Transport: &http.Transport{DialContext: l.dial, MaxIdleConnsPerHost: 1}}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
