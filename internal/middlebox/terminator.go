package middlebox

import (
	"context"
	"io"
	"sync"

	"tcpls"
)

// TLSTerminator is a transparent TLS-terminating proxy (the mitmproxy
// configuration of Sec. 5.2): it terminates the client's session with
// its own certificate, originates a fresh session to the real server,
// and relays stream data between the two. It does not speak TCPLS on
// either leg, so:
//
//   - a TCPLS client passing through it observes no TCPLS Hello echo
//     and falls back to plain TLS (the paper's implicit fallback);
//   - a client that pins the real server's key detects the proxy.
type TLSTerminator struct {
	ln       *tcpls.Listener
	target   string
	wg       sync.WaitGroup
	sessions int
	mu       sync.Mutex
}

// NewTLSTerminator starts a terminating proxy toward target using its
// own fresh identity.
func NewTLSTerminator(target string) (*TLSTerminator, error) {
	cert, err := tcpls.NewCertificate("proxy.middlebox")
	if err != nil {
		return nil, err
	}
	ln, err := tcpls.Listen("tcp", "127.0.0.1:0", &tcpls.Config{
		Certificate:  cert,
		DisableTCPLS: true, // the proxy is a plain TLS device
	})
	if err != nil {
		return nil, err
	}
	t := &TLSTerminator{ln: ln, target: target}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the proxy's listening address.
func (t *TLSTerminator) Addr() string { return t.ln.Addr().String() }

// Sessions returns how many client sessions the proxy terminated.
func (t *TLSTerminator) Sessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions
}

// Close stops the proxy.
func (t *TLSTerminator) Close() error { return t.ln.Close() }

func (t *TLSTerminator) acceptLoop() {
	for {
		clientSess, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		t.sessions++
		t.mu.Unlock()
		go t.relay(clientSess)
	}
}

// relay maps each client stream onto a fresh upstream stream.
func (t *TLSTerminator) relay(clientSess *tcpls.Session) {
	defer clientSess.Close()
	upstream, err := tcpls.Dial("tcp", t.target, &tcpls.Config{DisableTCPLS: true})
	if err != nil {
		return
	}
	defer upstream.Close()
	for {
		cs, err := clientSess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		us, err := upstream.OpenStream()
		if err != nil {
			return
		}
		go proxyPair(cs, us)
	}
}

func proxyPair(a, b io.ReadWriteCloser) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); io.Copy(b, a); b.Close() }()
	go func() { defer wg.Done(); io.Copy(a, b); a.Close() }()
	wg.Wait()
}
