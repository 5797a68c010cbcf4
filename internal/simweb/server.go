package simweb

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"strconv"
	"time"

	"permadead/internal/simclock"
)

// Server exposes a World over real HTTP and HTTPS on the loopback
// interface. Virtual hosting is by Host header: the paired Transport's
// dialer routes every simulated hostname to the server's listeners, so
// a stock net/http client resolves "http://www.example.simnews/..."
// against the simulation exactly as it would against the internet.
//
// Transport-level failure modes are simulated in the dialer (DNS
// failures, connection timeouts); HTTP-level behaviour comes from the
// same Result state machine the in-process Transport uses.
type Server struct {
	World *World
	// At is the simulated day, unless a request carries DayHeader.
	At simclock.Day
	// TimeoutHang is how long the handler stalls a request whose
	// simulated outcome is a timeout; pair it with a smaller client
	// timeout. Defaults to 2s.
	TimeoutHang time.Duration

	httpLn  net.Listener
	httpsLn net.Listener
	httpSrv *http.Server
}

// NewServer creates (but does not start) a Server pinned to day at.
func NewServer(w *World, at simclock.Day) *Server {
	return &Server{World: w, At: at, TimeoutHang: 2 * time.Second}
}

// Start binds the HTTP and HTTPS listeners on 127.0.0.1 and begins
// serving. The HTTPS listener uses a freshly generated self-signed
// certificate; Transport() configures clients to accept it.
func (s *Server) Start() error {
	var err error
	s.httpLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("simweb: listen http: %w", err)
	}
	cert, err := selfSignedCert()
	if err != nil {
		s.httpLn.Close()
		return err
	}
	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.httpLn.Close()
		return fmt.Errorf("simweb: listen https: %w", err)
	}
	s.httpsLn = tls.NewListener(tlsLn, &tls.Config{Certificates: []tls.Certificate{cert}})

	s.httpSrv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go s.httpSrv.Serve(s.httpLn)  //nolint:errcheck // closed on shutdown
	go s.httpSrv.Serve(s.httpsLn) //nolint:errcheck
	return nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

// HTTPAddr returns the plain-HTTP listener address ("127.0.0.1:port").
func (s *Server) HTTPAddr() string { return s.httpLn.Addr().String() }

// HTTPSAddr returns the TLS listener address.
func (s *Server) HTTPSAddr() string { return s.httpsLn.Addr().String() }

// handle serves one request by evaluating the world's state machine
// for the request's Host and path.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	day := s.At
	if h := r.Header.Get(DayHeader); h != "" {
		if n, err := strconv.Atoi(h); err == nil {
			day = simclock.Day(n)
		}
	}
	attempt := 0
	if h := r.Header.Get(AttemptHeader); h != "" {
		if n, err := strconv.Atoi(h); err == nil {
			attempt = n
		}
	}
	host := r.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	pq := r.URL.EscapedPath()
	if pq == "" {
		pq = "/"
	}
	if r.URL.RawQuery != "" {
		pq += "?" + r.URL.RawQuery
	}

	res := s.World.GetPathAttempt(host, pq, day, attempt)
	switch res.Kind {
	case KindDNSFailure:
		if s.World.Resolves(host, day) {
			// A DNS-flap fault, not a lapsed registration: the dialer
			// already connected us, so the closest real-network analogue
			// is the connection dying mid-exchange.
			panic(http.ErrAbortHandler)
		}
		// The dialer should have failed this request already; if a
		// client reaches us anyway (e.g. via direct IP), answer 502 so
		// the mismatch is visible rather than silent.
		http.Error(w, "simweb: host does not resolve", http.StatusBadGateway)
		return
	case KindTimeout:
		// Stall longer than any reasonable client timeout, then drop.
		select {
		case <-r.Context().Done():
		case <-time.After(s.TimeoutHang):
		}
		panic(http.ErrAbortHandler)
	}

	ct := res.ContentType
	if ct == "" {
		ct = "text/html; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	if res.Location != "" {
		scheme := "http"
		if r.TLS != nil {
			scheme = "https"
		}
		w.Header().Set("Location", ResolveLocation(scheme, r.Host, res.Location))
	}
	if res.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfterSec))
	}
	if r.Method == http.MethodHead {
		// Mirror real servers (and the in-process Transport): HEAD
		// advertises the GET entity's length with an empty body.
		w.Header().Set("Content-Length", strconv.Itoa(len(res.Body)))
	}
	w.WriteHeader(res.Status)
	if r.Method != http.MethodHead {
		fmt.Fprint(w, res.Body)
	}
}

// Transport returns an http.RoundTripper that routes every simulated
// hostname to this server over real TCP, fails DNS-dead hostnames with
// *net.DNSError from the dialer, and trusts the server's self-signed
// certificate. dialTimeout bounds connection attempts to hosts whose
// simulated state is "hang" (use a value well below TimeoutHang).
func (s *Server) Transport(dialTimeout time.Duration) http.RoundTripper {
	dial := func(ctx context.Context, network, addr, target string) (net.Conn, error) {
		host := addr
		if h, _, err := net.SplitHostPort(addr); err == nil {
			host = h
		}
		day := s.At
		if !s.World.Resolves(host, day) {
			return nil, &net.DNSError{Err: "no such host", Name: host, IsNotFound: true}
		}
		site := s.World.Site(host)
		if site != nil && site.TimeoutFrom.Valid() && !day.Before(site.TimeoutFrom) {
			// Simulate a dial that never completes: block until the
			// context or our own timeout expires.
			timer := time.NewTimer(dialTimeout)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-timer.C:
				return nil, &timeoutError{addr: addr}
			}
		}
		var d net.Dialer
		return d.DialContext(ctx, network, target)
	}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dial(ctx, network, addr, s.HTTPAddr())
		},
		DialTLSContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dial(ctx, network, addr, s.HTTPSAddr())
			if err != nil {
				return nil, err
			}
			host := addr
			if h, _, e := net.SplitHostPort(addr); e == nil {
				host = h
			}
			tlsConn := tls.Client(conn, &tls.Config{
				ServerName:         host,
				InsecureSkipVerify: true, // self-signed simulation cert
			})
			if err := tlsConn.HandshakeContext(ctx); err != nil {
				conn.Close()
				return nil, err
			}
			return tlsConn, nil
		},
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}
}

// selfSignedCert generates a throwaway ECDSA certificate valid for any
// server name (clients skip verification anyway).
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("simweb: generate key: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "simweb"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"*"},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("simweb: create cert: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
