// Command quickstart is the smallest complete TCPLS program: a server
// and a client in one process, a TLS 1.3-shaped handshake with the
// TCPLS extension, one multiplexed stream, and an encrypted TCP option
// exchanged over the secure channel.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"tcpls"
)

func main() {
	// --- Server ---
	cert, err := tcpls.NewCertificate("quickstart.example")
	if err != nil {
		log.Fatal(err)
	}
	ln, err := tcpls.Listen("tcp", "127.0.0.1:0", &tcpls.Config{Certificate: cert})
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				// Log encrypted TCP options sent by the client.
				for _, opt := range sess.TCPOptions() {
					fmt.Printf("server: TCP option kind=%d value=%v\n", opt.Kind, opt.Value)
				}
				for {
					st, err := sess.AcceptStream(context.Background())
					if err != nil {
						return
					}
					go func() {
						io.Copy(st, st) // echo
						st.Close()
					}()
				}
			}()
		}
	}()

	// --- Client ---
	sess, err := tcpls.Dial("tcp", ln.Addr().String(), &tcpls.Config{
		ServerName: "quickstart.example",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	id := sess.ID()
	fmt.Printf("client: session %x established, %d join cookies\n", id[:4], sess.Cookies())

	// Ship the TCP User Timeout option over the encrypted channel
	// (paper §3.1: reliable, unlimited, middlebox-proof TCP options).
	if err := sess.SendTCPOption(0, tcpls.OptUserTimeout, []byte{0, 0, 0, 250}); err != nil {
		log.Fatal(err)
	}

	st, err := sess.OpenStream()
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("hello over TCPLS")
	if _, err := st.Write(msg); err != nil {
		log.Fatal(err)
	}
	reply := make([]byte, len(msg))
	if _, err := io.ReadFull(st, reply); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: echo reply %q\n", reply)

	rtt, err := sess.Ping(0, 2*time.Second)
	if err == nil {
		fmt.Printf("client: encrypted echo probe RTT %v\n", rtt)
	}

	// Every session carries a lock-free telemetry registry; the same
	// numbers are scrapable in Prometheus format when
	// Config.Telemetry.Addr is set.
	snap := sess.Snapshot()
	fmt.Printf("client: snapshot — records sent=%d received=%d bytes sent=%d conns=%d streams=%d\n",
		snap.RecordsSent, snap.RecordsReceived, snap.BytesSent, snap.ConnsLive, snap.StreamsOpen)
}
