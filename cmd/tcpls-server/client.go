package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"tcpls"
)

// runClient is -connect: a client of a tcpls-server in echo mode. With
// a ticket file it runs the resumption probe; without one it pushes
// size bytes through one echo stream and checks the echo byte for byte.
func runClient(addr string, cfg *tcpls.Config, size int64, ticketPath string) {
	if ticketPath != "" {
		resumeProbe(addr, cfg, ticketPath)
		return
	}
	sess, err := tcpls.Dial("tcp", addr, cfg)
	if err != nil {
		log.Fatalf("dial %s: %v", addr, err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		log.Fatal(err)
	}
	// Read the echo while writing: a writer that never reads fills both
	// receive buffers, and the acks queued behind the echo never arrive,
	// so its send window never moves.
	echoed := make(chan error, 1)
	go func() { echoed <- readPattern(st, size) }()
	start := time.Now()
	chunk := make([]byte, 1<<20)
	for sent := int64(0); sent < size; {
		n := min(int64(len(chunk)), size-sent)
		fillPattern(chunk[:n], sent)
		if _, err := st.Write(chunk[:n]); err != nil {
			log.Fatalf("write: %v", err)
		}
		sent += n
	}
	st.Close()
	if err := <-echoed; err != nil {
		log.Fatalf("echo: %v", err)
	}
	elapsed := time.Since(start)
	stats := sess.Stats()
	fmt.Printf("%d bytes echoed byte-exact in %v (%.1f Mbit/s each way, failover=%v); records sent=%d acks received=%d retransmits=%d\n",
		size, elapsed, float64(size)*8/elapsed.Seconds()/1e6, cfg.EnableFailover,
		stats.RecordsSent, stats.AcksReceived, stats.Retransmits)
}

// fillPattern writes the stream's bytes from offset off on: byte i of
// the stream is i mod 251, so a lost, repeated or reordered span shows.
func fillPattern(p []byte, off int64) {
	for i := range p {
		p[i] = byte((off + int64(i)) % 251)
	}
}

// readPattern reads the echo to EOF and checks it is exactly the size
// bytes fillPattern wrote.
func readPattern(r io.Reader, size int64) error {
	buf := make([]byte, 1<<20)
	var off int64
	for {
		n, err := r.Read(buf)
		for i, b := range buf[:n] {
			if b != byte((off+int64(i))%251) {
				return fmt.Errorf("byte %d corrupted", off+int64(i))
			}
		}
		off += int64(n)
		if err == io.EOF {
			if off != size {
				return fmt.Errorf("%d bytes echoed, want %d", off, size)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("after %d bytes: %w", off, err)
		}
	}
}

// resumeProbe is one leg of the resumption smoke against a live
// tcpls-server. Without a saved ticket it performs a full handshake,
// waits for the server to issue one, and stores it at ticketPath. With
// a saved ticket it resumes — offering early data in the first flight —
// and exits nonzero unless the server accepted the ticket at 1-RTT and
// echoed the early bytes back intact. Run it once, restart the server
// (same -ticket-key-file), run it again: success proves tickets survive
// real process restarts.
//
// Across a restart the 0-RTT offer itself must be DECLINED: the fresh
// process's anti-replay register has no memory of flights the old one
// accepted, so its freshness gate refuses tickets issued before its
// birth. The probe asserts that rejection too — a server that accepts
// 0-RTT here has a replay hole.
func resumeProbe(addr string, cfg *tcpls.Config, ticketPath string) {
	early := []byte("resume-smoke: 0-rtt across a restart\n")
	raw, err := os.ReadFile(ticketPath)
	resuming := err == nil
	if resuming {
		var t tcpls.ClientTicket
		if err := json.Unmarshal(raw, &t); err != nil {
			log.Fatalf("resume-smoke: corrupt ticket file %s: %v", ticketPath, err)
		}
		cfg.Ticket = &t
		cfg.EarlyData = early
	}
	sess, err := tcpls.Dial("tcp", addr, cfg)
	if err != nil {
		log.Fatalf("resume-smoke: dial %s: %v", addr, err)
	}
	defer sess.Close()

	if resuming {
		if !sess.Resumed() {
			log.Fatal("resume-smoke: ticket not accepted — resumption did not survive the restart")
		}
		if sess.EarlyDataAccepted() {
			log.Fatal("resume-smoke: 0-RTT accepted across a restart — anti-replay freshness gate failed")
		}
		st, ok := sess.EarlyStream()
		if !ok {
			log.Fatal("resume-smoke: no early stream for the 1-RTT fallback")
		}
		got := make([]byte, len(early))
		if _, err := io.ReadFull(st, got); err != nil {
			log.Fatalf("resume-smoke: early echo read: %v", err)
		}
		if string(got) != string(early) {
			log.Fatalf("resume-smoke: early echo corrupted: %q", got)
		}
		fmt.Println("resume-smoke: resumed at 1-RTT, 0-RTT correctly declined post-restart, early echo byte-exact")
		return
	}

	var ticket *tcpls.ClientTicket
	deadline := time.Now().Add(5 * time.Second)
	for ticket == nil && time.Now().Before(deadline) {
		ticket = sess.ResumptionTicket()
		time.Sleep(10 * time.Millisecond)
	}
	if ticket == nil {
		log.Fatal("resume-smoke: server issued no resumption ticket")
	}
	out, err := json.Marshal(ticket)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(ticketPath, out, 0o600); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume-smoke: full handshake, ticket saved to %s\n", ticketPath)
}
