package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSilentConnectionClosed: a client that connects and never sends a
// request header is disconnected once the header timeout passes, while a
// client that sends its request in time is answered.
func TestSilentConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer("", http.NotFoundHandler(), 50*time.Millisecond)
	go srv.Serve(ln)
	defer srv.Close()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := silent.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := silent.Read(make([]byte, 1))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent connection still open after %v", time.Since(start))
	}
	if n != 0 || err != io.EOF {
		t.Fatalf("silent connection read %d bytes, %v; want EOF from the server's close", n, err)
	}

	talker, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer talker.Close()
	if _, err := io.WriteString(talker, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	status, err := bufio.NewReader(talker).ReadString('\n')
	if err != nil || !strings.Contains(status, "404") {
		t.Fatalf("request in time answered %q, %v; want a 404 status line", status, err)
	}
}
