package core

import (
	"crypto/x509"
	"encoding/binary"
	"fmt"

	"tlsfof/internal/classify"
)

// Binary codec for an Observation: the observation of every tuple in a
// batch frame (batch.go). It follows the same uvarint framing idiom as
// the ingest upload wire (internal/ingest): length-prefixed strings,
// varint integers, and bools packed into one flag byte. The encoding
// round-trips every field, so a replayed record aggregates identically
// to the original ingest.

// Limits on one encoded observation; hostile or corrupt inputs exist
// (the WAL recovery path decodes bytes that survived a crash).
const (
	// MaxCodecStringLen bounds every string field (host names are <= 255
	// by DNS; issuer strings in real chains run far shorter than this).
	MaxCodecStringLen = 4096
)

// Observation bool flags, packed into one byte.
const (
	flagProxied = 1 << iota
	flagNullIssuer
	flagMD5Signed
	flagWeakKey
	flagUpgradedKey
	flagIssuerCopied
	flagSubjectDrift

	flagAll = 1<<iota - 1
)

// AppendObservation appends the encoding of o, the observation of every
// tuple in a batch frame: one flag byte for the booleans, then the issuer
// strings, the key, signature and chain numbers, the category and the
// product name.
func AppendObservation(dst []byte, o Observation) []byte {
	var flags byte
	if o.Proxied {
		flags |= flagProxied
	}
	if o.NullIssuer {
		flags |= flagNullIssuer
	}
	if o.MD5Signed {
		flags |= flagMD5Signed
	}
	if o.WeakKey {
		flags |= flagWeakKey
	}
	if o.UpgradedKey {
		flags |= flagUpgradedKey
	}
	if o.IssuerCopied {
		flags |= flagIssuerCopied
	}
	if o.SubjectDrift {
		flags |= flagSubjectDrift
	}
	dst = append(dst, flags)
	dst = appendString(dst, o.IssuerOrg)
	dst = appendString(dst, o.IssuerCN)
	dst = appendString(dst, o.IssuerOU)
	dst = binary.AppendUvarint(dst, uint64(o.KeyBits))
	dst = binary.AppendUvarint(dst, uint64(o.OriginalKeyBits))
	dst = binary.AppendUvarint(dst, uint64(o.SigAlg))
	dst = binary.AppendUvarint(dst, uint64(o.ChainLen))
	dst = binary.AppendUvarint(dst, uint64(o.Category))
	dst = appendString(dst, o.ProductName)
	return dst
}

// DecodeObservation decodes an observation from the front of b and
// returns it with the unconsumed remainder. str makes each string field
// from its bytes, which it must not retain; nil copies them.
func DecodeObservation(b []byte, str func([]byte) string) (Observation, []byte, error) {
	var o Observation
	if len(b) == 0 {
		return o, nil, fmt.Errorf("core: codec: truncated before flags")
	}
	flags := b[0]
	if flags&^flagAll != 0 {
		return o, nil, fmt.Errorf("core: codec: unknown observation flags %#02x", flags)
	}
	b = b[1:]
	o.Proxied = flags&flagProxied != 0
	o.NullIssuer = flags&flagNullIssuer != 0
	o.MD5Signed = flags&flagMD5Signed != 0
	o.WeakKey = flags&flagWeakKey != 0
	o.UpgradedKey = flags&flagUpgradedKey != 0
	o.IssuerCopied = flags&flagIssuerCopied != 0
	o.SubjectDrift = flags&flagSubjectDrift != 0

	var err error
	if o.IssuerOrg, b, err = readString(b, "issuer org", str); err != nil {
		return o, nil, err
	}
	if o.IssuerCN, b, err = readString(b, "issuer cn", str); err != nil {
		return o, nil, err
	}
	if o.IssuerOU, b, err = readString(b, "issuer ou", str); err != nil {
		return o, nil, err
	}
	var v uint64
	if v, b, err = readUvarint(b, "key bits"); err != nil {
		return o, nil, err
	}
	o.KeyBits = int(v)
	if v, b, err = readUvarint(b, "original key bits"); err != nil {
		return o, nil, err
	}
	o.OriginalKeyBits = int(v)
	if v, b, err = readUvarint(b, "sig alg"); err != nil {
		return o, nil, err
	}
	o.SigAlg = x509.SignatureAlgorithm(v)
	if v, b, err = readUvarint(b, "chain len"); err != nil {
		return o, nil, err
	}
	o.ChainLen = int(v)
	if v, b, err = readUvarint(b, "category"); err != nil {
		return o, nil, err
	}
	o.Category = classify.Category(v)
	if o.ProductName, b, err = readString(b, "product", str); err != nil {
		return o, nil, err
	}
	return o, b, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readUvarint(b []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: codec: truncated %s", field)
	}
	return v, b[n:], nil
}

func readString(b []byte, field string, str func([]byte) string) (string, []byte, error) {
	n, b, err := readUvarint(b, field)
	if err != nil {
		return "", nil, err
	}
	if n > MaxCodecStringLen {
		return "", nil, fmt.Errorf("core: codec: %s of %d bytes exceeds %d", field, n, MaxCodecStringLen)
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("core: codec: truncated %s", field)
	}
	if str == nil {
		return string(b[:n]), b[n:], nil
	}
	return str(b[:n]), b[n:], nil
}
