package certgen

import (
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"time"
)

// CA couples a CA certificate with its signing key and can issue leaves and
// subordinate CAs. It models every signer in the reproduction: the real
// roots behind legitimate sites (GeoTrust/DigiCert analogues), the roots
// that interception products inject into client root stores, and the junk
// roots malware signs with.
type CA struct {
	Cert *x509.Certificate
	Key  *rsa.PrivateKey
	DER  []byte
}

// CAConfig configures NewRootCA.
type CAConfig struct {
	Subject  pkix.Name
	KeyBits  int      // default 2048
	SigAlg   SigAlg   // default SHA256WithRSA
	Lifetime int      // years, default 10
	Pool     *KeyPool // default DefaultPool
	// NotBefore anchors the validity window (default: one year before
	// DefaultNotBefore, i.e. the study period).
	NotBefore time.Time
	// KeyName, when set, pulls the signing key from Pool.Named so that
	// multiple CAs can deliberately share key material.
	KeyName string
}

// notBefore resolves the validity anchor.
func (c *CAConfig) notBefore() time.Time {
	if !c.NotBefore.IsZero() {
		return c.NotBefore
	}
	return DefaultNotBefore.AddDate(-1, 0, 0)
}

func (c *CAConfig) key() (*rsa.PrivateKey, error) {
	pool := c.Pool
	if pool == nil {
		pool = DefaultPool
	}
	bits := c.KeyBits
	if bits == 0 {
		bits = 2048
	}
	if c.KeyName != "" {
		return pool.Named(c.KeyName, bits)
	}
	return pool.Get(bits)
}

// NewRootCA creates a self-signed root.
func NewRootCA(cfg CAConfig) (*CA, error) {
	key, err := cfg.key()
	if err != nil {
		return nil, err
	}
	years := cfg.Lifetime
	if years == 0 {
		years = 10
	}
	nb := cfg.notBefore()
	tmpl := Template{
		Subject:   cfg.Subject,
		IsCA:      true,
		SigAlg:    cfg.SigAlg,
		NotBefore: nb,
		NotAfter:  nb.AddDate(years+1, 0, 0),
	}
	der, err := Issue(tmpl, &key.PublicKey, key, nil)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certgen: parse freshly issued root: %w", err)
	}
	return &CA{Cert: cert, Key: key, DER: der}, nil
}

// LeafConfig configures CA.IssueLeaf.
type LeafConfig struct {
	// CommonName and DNSNames identify the server; DNSNames defaults to
	// {CommonName}.
	CommonName string
	DNSNames   []string

	// Subject overrides the whole subject when non-nil (for the paper's
	// wildcarded-IP and wrong-domain subjects).
	Subject *pkix.Name

	// Issuer overrides the issuer name recorded in the cert without
	// changing who actually signs (§5.2 "claims DigiCert" forgeries).
	Issuer *pkix.Name

	KeyBits int    // default 2048
	SigAlg  SigAlg // default SHA256WithRSA

	// Key forces a specific private key (shared-key malware); otherwise
	// one is drawn from Pool.
	Key  *rsa.PrivateKey
	Pool *KeyPool

	NotBefore, NotAfter time.Time

	OmitSKI              bool
	OmitBasicConstraints bool
}

// Leaf is an issued end-entity certificate with its private key and the
// chain presented during handshakes (leaf first, then issuers).
type Leaf struct {
	Cert     *x509.Certificate
	Key      *rsa.PrivateKey
	DER      []byte
	ChainDER [][]byte
}

// IssueLeaf issues an end-entity certificate.
func (ca *CA) IssueLeaf(cfg LeafConfig) (*Leaf, error) {
	key := cfg.Key
	if key == nil {
		pool := cfg.Pool
		if pool == nil {
			pool = DefaultPool
		}
		bits := cfg.KeyBits
		if bits == 0 {
			bits = 2048
		}
		var err error
		key, err = pool.Get(bits)
		if err != nil {
			return nil, err
		}
	}
	subject := pkix.Name{CommonName: cfg.CommonName}
	if cfg.Subject != nil {
		subject = *cfg.Subject
	}
	dns := cfg.DNSNames
	if len(dns) == 0 && cfg.CommonName != "" {
		dns = []string{cfg.CommonName}
	}
	tmpl := Template{
		Subject:              subject,
		Issuer:               cfg.Issuer,
		DNSNames:             dns,
		SigAlg:               cfg.SigAlg,
		NotBefore:            cfg.NotBefore,
		NotAfter:             cfg.NotAfter,
		OmitSKI:              cfg.OmitSKI,
		OmitBasicConstraints: cfg.OmitBasicConstraints,
	}
	der, err := Issue(tmpl, &key.PublicKey, ca.Key, ca.DER)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certgen: parse freshly issued leaf: %w", err)
	}
	return &Leaf{
		Cert:     cert,
		Key:      key,
		DER:      der,
		ChainDER: [][]byte{der, ca.DER},
	}, nil
}

// PEM encodes the CA certificate in PEM form.
func (ca *CA) PEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.DER})
}

// CertPool returns an x509.CertPool containing only this CA, for use as a
// client root store in tests and examples.
func (ca *CA) CertPool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.Cert)
	return pool
}
