package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a decoded pprof profile.proto the ledger uses:
// sample types and every sample's stack resolved to function names. The
// module has no third-party dependencies, so this is a stdlib-only decoder
// for the gzipped protobuf runtime/pprof writes.
type profile struct {
	// sampleTypes holds "type/unit" per value column, e.g. "cpu/nanoseconds".
	sampleTypes []string
	samples     []sample
}

// sample is one stack with its values. funcs runs leaf first, with inlined
// frames expanded in the order pprof lists them.
type sample struct {
	funcs  []string
	values []int64
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}

	type valueType struct{ typ, unit int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     []valueType
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := walkFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var vt valueType
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fValueTypeType:
					vt.typ = int64(v)
				case fValueTypeUnit:
					vt.unit = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case fProfileSample:
			var s rawSample
			err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case fSampleLocation:
					return appendUints(&s.locs, w, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t.typ)+"/"+str(t.unit))
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.funcs = append(s.funcs, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// valueIndex returns the column of the given "type/unit" sample type, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// cumulative sums column col over every sample whose stack contains a
// function for which match is true — pprof's "cum" for that set of
// functions, each sample counted once however many matching frames it has.
func (p *profile) cumulative(col int, match func(fn string) bool) int64 {
	var total int64
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		for _, fn := range s.funcs {
			if match(fn) {
				total += s.values[col]
				break
			}
		}
	}
	return total
}

// appendUints decodes a repeated scalar field that may be packed (one
// length-delimited run of varints) or unpacked (one varint per field).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// walkFields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the payload of length-delimited ones.
func walkFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case wire32:
			if len(data) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: bad length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
