package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"repro/internal/stats"
)

// decodeRuns is Get's reader for a stored payload: it accepts exactly the
// bytes json.Marshal writes for a non-empty []*stats.Run of non-nil runs
// and decodes them in one pass. Anything else — another field order, a
// space, an exponent or leading zero, an escape json.Marshal would not
// write, a value out of range, a null, trailing bytes — is rejected, so a
// re-formatted entry reads as a miss.
//
// The field plan comes from reflection over stats.Run once, at package
// initialisation, and supports only what the stats blocks hold: nested
// structs, uint64 and string fields, all exported and untagged. A field of
// any other kind leaves runPlanErr set and every Get a miss;
// TestRunPlanCoversStats fails on it first.
func decodeRuns(b []byte) ([]*stats.Run, bool) {
	if runPlanErr != nil || len(b) == 0 || b[0] != '[' {
		return nil, false
	}
	var runs []*stats.Run
	for i := 1; ; i++ { // i steps past the '[' and then each ','
		r := new(stats.Run)
		var ok bool
		if i, ok = runPlan.decode(b, i, unsafe.Pointer(r)); !ok {
			return nil, false
		}
		runs = append(runs, r)
		switch {
		case i < len(b) && b[i] == ',':
		case i == len(b)-1 && b[i] == ']':
			return runs, true
		default:
			return nil, false
		}
	}
}

var runPlan, runPlanErr = newStructPlan(reflect.TypeOf(stats.Run{}))

// newStructPlan plans the struct t for decoding as well as encoding: its
// plan must be decodable.
func newStructPlan(t reflect.Type) (*typePlan, error) {
	p, err := newTypePlan(t)
	if err != nil {
		return nil, err
	}
	if p.kind != reflect.Struct || !p.decodable {
		return nil, fmt.Errorf("campaign: run decoder: %s holds a field that is not an exported, untagged uint64, string or such struct", t)
	}
	return p, nil
}

// decode reads the struct starting at b[i] into the value at ptr, of type
// p.typ, for a decodable plan, and returns the index just past it. Such a
// plan is flat: no field is ever omitted, so every nested struct's fields
// are in p.fields, and the values are uint64s and strings.
func (p *typePlan) decode(b []byte, i int, ptr unsafe.Pointer) (int, bool) {
	i, ok := skip(b, i, "{")
	if !ok {
		return 0, false
	}
	for n, f := range p.fields {
		lit := f.lit
		if n == 0 {
			lit = lit[1:]
		}
		if i, ok = skip(b, i, lit); !ok {
			return 0, false
		}
		fp := unsafe.Add(ptr, f.offset)
		switch f.kind {
		case reflect.Uint64:
			*(*uint64)(fp), i, ok = parseUint(b, i)
		case reflect.String:
			*(*string)(fp), i, ok = parseString(b, i)
		}
		if !ok {
			return 0, false
		}
	}
	return skip(b, i, p.close)
}

// skip returns the index past lit when b[i:] starts with it.
func skip(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return 0, false
	}
	return i + len(lit), true
}

// parseUint reads a decimal as json.Marshal writes a uint64: at least one
// digit, no sign, no leading zero, no fraction or exponent, no overflow.
func parseUint(b []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return n, i, true
}

// parseString reads a JSON string as json.Marshal writes it. The common
// case has no escape and is read in place: it must be verbatim, holding
// only what json.Marshal writes unescaped. A string with an escape is
// decoded by encoding/json and kept only if it marshals back to the same
// bytes.
func parseString(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", 0, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return "", 0, false
	}
	raw := b[i+1 : i+1+n]
	if bytes.IndexByte(raw, '\\') >= 0 {
		return parseEscapedString(b, i)
	}
	if s := string(raw); verbatim(s) {
		return s, i + n + 2, true
	}
	return "", 0, false
}

// parseEscapedString reads the string literal opening at b[i] through
// encoding/json and keeps it only when it is json.Marshal's own encoding.
func parseEscapedString(b []byte, i int) (string, int, bool) {
	j := i + 1
	for j < len(b) && b[j] != '"' {
		if b[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(b) {
		return "", 0, false
	}
	lit := b[i : j+1]
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", 0, false
	}
	if again, err := json.Marshal(s); err != nil || !bytes.Equal(again, lit) {
		return "", 0, false
	}
	return s, j + 1, true
}
