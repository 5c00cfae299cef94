// Package policy implements the Adobe Flash socket policy file protocol.
//
// Flash's security model required that before a SWF opened a raw TCP socket
// to host:port, the runtime fetched a "socket policy file" from that host
// and checked that it granted access (§3.1 step 2 of the paper). The
// measurement study was therefore constrained to probe only hosts serving
// permissive policy files — this is why the second study's host list
// (Table 1) was selected by scanning the Alexa top million for such files.
//
// The protocol is trivial: the client connects and sends the NUL-terminated
// string "<policy-file-request/>", and the server replies with an XML
// policy document terminated by NUL. The paper's deployment served the
// policy on port 80, co-resident with HTTP, to survive captive portals that
// block unusual ports; Mux reproduces that trick by sniffing the first
// bytes of each connection.
package policy

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"tlsfof/internal/resilient"
)

// Request is the exact byte string a Flash runtime sends, including the
// terminating NUL.
var Request = []byte("<policy-file-request/>\x00")

// PortRange is an inclusive TCP port interval. A Flash "to-ports" attribute
// is a comma-separated list of ports and ranges, or "*".
type PortRange struct {
	Lo, Hi int
}

// Contains reports whether port falls inside the range.
func (pr PortRange) Contains(port int) bool { return port >= pr.Lo && port <= pr.Hi }

// Rule is one <allow-access-from> element.
type Rule struct {
	// Domain is the requesting-domain pattern: "*", an exact host, or a
	// "*.example.com" suffix wildcard.
	Domain string
	// Ports is empty when to-ports="*" (all ports allowed).
	Ports []PortRange
	// AllPorts is true for to-ports="*" or a missing to-ports attribute.
	AllPorts bool
}

// Allows reports whether the rule grants domain access to port.
func (r Rule) Allows(domain string, port int) bool {
	if !domainMatches(r.Domain, domain) {
		return false
	}
	if r.AllPorts {
		return true
	}
	for _, pr := range r.Ports {
		if pr.Contains(port) {
			return true
		}
	}
	return false
}

func domainMatches(pattern, domain string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasPrefix(pattern, "*.") {
		suffix := pattern[1:] // ".example.com"
		return strings.HasSuffix(domain, suffix) && len(domain) > len(suffix)
	}
	return strings.EqualFold(pattern, domain)
}

// File is a parsed socket policy file.
type File struct {
	Rules []Rule
}

// PermissiveFor reports whether the file lets ANY domain reach the given
// port — the criterion the authors' Alexa scan applied ("permissive socket
// policy files that allowed connections to port 443 from any domain", §4.2).
func (f *File) PermissiveFor(port int) bool {
	for _, r := range f.Rules {
		if r.Domain == "*" && (r.AllPorts || r.Allows("*", port)) {
			return true
		}
	}
	return false
}

// Permissive is the policy file the paper's deployment served: all domains,
// all ports.
var Permissive = &File{Rules: []Rule{{Domain: "*", AllPorts: true}}}

// PermissivePort443 allows any domain to reach port 443 only, the minimum
// the probed Table 1 hosts needed.
var PermissivePort443 = &File{Rules: []Rule{{Domain: "*", Ports: []PortRange{{443, 443}}}}}

// xmlPolicy mirrors the on-the-wire XML schema.
type xmlPolicy struct {
	XMLName xml.Name   `xml:"cross-domain-policy"`
	Allows  []xmlAllow `xml:"allow-access-from"`
}

type xmlAllow struct {
	Domain  string `xml:"domain,attr"`
	ToPorts string `xml:"to-ports,attr"`
}

// Marshal renders the policy file as NUL-terminated XML ready to write to a
// socket.
func (f *File) Marshal() ([]byte, error) {
	doc := xmlPolicy{}
	for _, r := range f.Rules {
		a := xmlAllow{Domain: r.Domain}
		if r.AllPorts {
			a.ToPorts = "*"
		} else {
			parts := make([]string, 0, len(r.Ports))
			for _, pr := range r.Ports {
				if pr.Lo == pr.Hi {
					parts = append(parts, strconv.Itoa(pr.Lo))
				} else {
					parts = append(parts, fmt.Sprintf("%d-%d", pr.Lo, pr.Hi))
				}
			}
			a.ToPorts = strings.Join(parts, ",")
		}
		doc.Allows = append(doc.Allows, a)
	}
	body, err := xml.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("policy: marshal: %w", err)
	}
	out := make([]byte, 0, len(xml.Header)+len(body)+1)
	out = append(out, xml.Header...)
	out = append(out, body...)
	out = append(out, 0)
	return out, nil
}

// Parse decodes a policy file; the trailing NUL is optional.
func Parse(data []byte) (*File, error) {
	data = bytes.TrimSuffix(data, []byte{0})
	var doc xmlPolicy
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("policy: parse: %w", err)
	}
	f := &File{}
	for _, a := range doc.Allows {
		r := Rule{Domain: a.Domain}
		switch strings.TrimSpace(a.ToPorts) {
		case "", "*":
			r.AllPorts = true
		default:
			for _, part := range strings.Split(a.ToPorts, ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				var pr PortRange
				if lo, hi, ok := strings.Cut(part, "-"); ok {
					loV, err1 := strconv.Atoi(lo)
					hiV, err2 := strconv.Atoi(hi)
					if err1 != nil || err2 != nil || loV > hiV {
						return nil, fmt.Errorf("policy: bad port range %q", part)
					}
					pr = PortRange{loV, hiV}
				} else {
					v, err := strconv.Atoi(part)
					if err != nil {
						return nil, fmt.Errorf("policy: bad port %q", part)
					}
					pr = PortRange{v, v}
				}
				if pr.Lo < 1 || pr.Hi > 65535 {
					return nil, fmt.Errorf("policy: port range %q out of bounds", part)
				}
				r.Ports = append(r.Ports, pr)
			}
		}
		f.Rules = append(f.Rules, r)
	}
	return f, nil
}

// Fetch performs the client side of the protocol on an established
// connection: send the request, read until NUL or EOF, parse.
func Fetch(conn net.Conn, timeout time.Duration) (*File, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err == nil {
			defer conn.SetDeadline(time.Time{})
		}
	}
	if _, err := conn.Write(Request); err != nil {
		return nil, fmt.Errorf("policy: send request: %w", err)
	}
	data, err := readUntilNUL(conn, 64<<10)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// FetchAddr dials host:port over TCP and fetches its policy file.
func FetchAddr(addr string, timeout time.Duration) (*File, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("policy: dial %s: %w", addr, err)
	}
	defer conn.Close()
	return Fetch(conn, timeout)
}

func readUntilNUL(r io.Reader, limit int) ([]byte, error) {
	buf := make([]byte, 0, 512)
	one := make([]byte, 256)
	for {
		n, err := r.Read(one)
		if n > 0 {
			if i := bytes.IndexByte(one[:n], 0); i >= 0 {
				return append(buf, one[:i]...), nil
			}
			buf = append(buf, one[:n]...)
			if len(buf) > limit {
				return nil, fmt.Errorf("policy: response exceeds %d bytes without terminator", limit)
			}
		}
		if err == io.EOF {
			if len(buf) == 0 {
				return nil, fmt.Errorf("policy: empty response")
			}
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("policy: read response: %w", err)
		}
	}
}

// Serve handles the server side of the protocol on one connection: read
// the request line, write the policy, close. Unrecognized requests get no
// response (matching Adobe's reference server).
func Serve(conn net.Conn, f *File, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err == nil {
			defer conn.SetDeadline(time.Time{})
		}
	}
	req := make([]byte, len(Request))
	if _, err := io.ReadFull(conn, req); err != nil {
		return fmt.Errorf("policy: read request: %w", err)
	}
	if !bytes.Equal(req, Request) {
		return fmt.Errorf("policy: unrecognized request %q", req)
	}
	out, err := f.Marshal()
	if err != nil {
		return err
	}
	if _, err := conn.Write(out); err != nil {
		return fmt.Errorf("policy: write response: %w", err)
	}
	return nil
}

// ListenAndServe accepts connections on ln, serving f to each until ln is
// closed, through the default resilient.Pool.
func ListenAndServe(ln net.Listener, f *File) {
	resilient.Serve(ln, func(conn net.Conn) error { return Serve(conn, f, 10*time.Second) }, nil)
}
