package faultnet

import (
	"fmt"
	"net"
	"sync"
)

// Network is an in-memory internet of TLS origins: a host name maps to
// the handler that answers it, and every dial is a net.Pipe whose server
// end the handler owns. The same Tool/Responder/Interceptor code that
// runs over TCP runs here without sockets, which keeps wire-mode runs
// hermetic (the audit grid) and gives the live-wire smoke its control
// run. An Injector composes with it through Injector.Dialer. Safe for
// concurrent use.
type Network struct {
	mu    sync.RWMutex
	hosts map[string]Handler
}

// Handler serves one accepted connection; it owns closing it.
type Handler func(net.Conn)

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{hosts: make(map[string]Handler)}
}

// Listen makes h answer every dial to host, replacing any previous
// handler.
func (n *Network) Listen(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = h
}

// Dial connects to host, returning the client end. The handler runs in
// its own goroutine, as an accepted socket would.
func (n *Network) Dial(host string) (net.Conn, error) {
	n.mu.RLock()
	h, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("faultnet: connection refused: %s", host)
	}
	client, server := net.Pipe()
	go h(server)
	return client, nil
}

// Intercepted returns the dialer of a client behind an interceptor
// (Figure 3's topology): the client addresses the real host, and tap —
// the proxy on the path, holding its own upstream dialer — answers every
// connection.
func Intercepted(tap Handler) func(host string) (net.Conn, error) {
	return func(string) (net.Conn, error) {
		client, proxySide := net.Pipe()
		go tap(proxySide)
		return client, nil
	}
}
