package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof protobuf profile (profile.proto) the
// layer split reads: samples with their location stacks, and the
// functions those locations resolve to.
type profile struct {
	sampleTypes []valueType
	samples     []profSample
	// locations maps a location ID to its function IDs, innermost
	// inlined function first.
	locations map[uint64][]uint64
	functions map[uint64]function
	strings   []string
}

type valueType struct{ typ, unit int64 }

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

type function struct{ name, file int64 }

// parseProfile decodes a gzip-compressed (or raw) pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	err := fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt valueType
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(wire, v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return repeated(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// valueIndex returns the index of the sample value of the given type
// and unit, or -1.
func (p *profile) valueIndex(typ, unit string) int {
	for i, vt := range p.sampleTypes {
		if p.str(vt.typ) == typ && p.str(vt.unit) == unit {
			return i
		}
	}
	return -1
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// stack symbolizes a sample, innermost frame first.
func (p *profile) stack(s profSample) []frame {
	var out []frame
	for _, loc := range s.locations {
		for _, id := range p.locations[loc] {
			f := p.functions[id]
			out = append(out, frame{p.str(f.name), p.str(f.file)})
		}
	}
	return out
}

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the varint/fixed value or the
// length-delimited bytes.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, packed (wire type 2) or
// not.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
