package main

// A reader for just enough of the pprof profile format (a gzipped
// protocol buffer, see github.com/google/pprof/proto/profile.proto) to
// charge CPU samples to layers. The standard library writes profiles
// but has no reader, and the benchmark imports nothing outside it.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

var errTruncated = errors.New("pprof: truncated message")

// protoFields calls fn for every field of one encoded message. For a
// varint field v holds the value; for a length-delimited one, data.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendInts decodes a repeated integer field, packed or not.
func appendInts(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// layerSamples reads a CPU profile and returns its sample count per
// layer: the innermost frame in a bce/internal/<layer> package names
// the layer, so memmove or mallocgc count toward whoever called them;
// the benchmark's own frames are "bench"; samples with neither (GC
// workers, the scheduler, bare net/http) are "runtime".
func layerSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendInts(s.locs, v, d)
				case 2:
					vals, err = appendInts(vals, v, d)
				}
				return err
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	layerOf := func(s sample) string {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					continue
				}
				if l := layerOfFunc(strs[idx]); l != "" {
					return l
				}
			}
		}
		return "runtime"
	}
	counts := map[string]int64{}
	for _, s := range samples {
		counts[layerOf(s)] += s.count
	}
	return counts, nil
}

// layerOfFunc maps a symbol such as "bce/internal/rrsim.(*Simulator).Run"
// to its layer ("rrsim"), the benchmark's own "main." symbols to
// "bench", and anything else to "".
func layerOfFunc(name string) string {
	if rest, ok := strings.CutPrefix(name, "bce/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(name, "main.") {
		return "bench"
	}
	return ""
}
