package campaign

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"unicode/utf8"

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
		if i, ok = runPlan.decode(b, i, reflect.ValueOf(r).Elem()); !ok {
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

// structPlan decodes one struct: each field's key literal, then its value,
// in declaration order, then close.
type structPlan struct {
	fields []fieldPlan
	close  string // "}", or "{}" for a struct without fields
}

type fieldPlan struct {
	key   string // `{"Name":` for the first field, `,"Name":` after it
	index int
	kind  reflect.Kind // reflect.Uint64, reflect.String or reflect.Struct
	sub   *structPlan  // the nested struct's plan when kind is Struct
}

var (
	uint64Type        = reflect.TypeOf(uint64(0))
	stringType        = reflect.TypeOf("")
	marshalerType     = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// newStructPlan plans t's fields. Leaves must be exactly uint64 or string:
// a named type may change how json.Marshal writes it (json.Number does).
func newStructPlan(t reflect.Type) (*structPlan, error) {
	if pt := reflect.PointerTo(t); pt.Implements(marshalerType) || pt.Implements(textMarshalerType) {
		return nil, fmt.Errorf("campaign: run decoder: %s marshals itself", t)
	}
	p := &structPlan{close: "}"}
	if t.NumField() == 0 {
		p.close = "{}"
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Anonymous || f.Tag.Get("json") != "" {
			return nil, fmt.Errorf("campaign: run decoder: %s.%s is not a plain exported field", t, f.Name)
		}
		name, err := json.Marshal(f.Name)
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fp := fieldPlan{key: sep + string(name) + ":", index: i, kind: f.Type.Kind()}
		switch {
		case f.Type == uint64Type, f.Type == stringType:
		case fp.kind == reflect.Struct:
			if fp.sub, err = newStructPlan(f.Type); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("campaign: run decoder: %s.%s has unsupported type %s", t, f.Name, f.Type)
		}
		p.fields = append(p.fields, fp)
	}
	return p, nil
}

// decode reads the struct starting at b[i] into v and returns the index
// just past it.
func (p *structPlan) decode(b []byte, i int, v reflect.Value) (int, bool) {
	ok := true
	for _, f := range p.fields {
		if i, ok = skip(b, i, f.key); !ok {
			return 0, false
		}
		fv := v.Field(f.index)
		switch f.kind {
		case reflect.Uint64:
			var n uint64
			if n, i, ok = parseUint(b, i); ok {
				fv.SetUint(n)
			}
		case reflect.String:
			var s string
			if s, i, ok = parseString(b, i); ok {
				fv.SetString(s)
			}
		case reflect.Struct:
			i, ok = f.sub.decode(b, i, fv)
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
// case has no escape and is read in place: it must hold no byte
// json.Marshal would have escaped (a control character, <, >, &, U+2028,
// U+2029) and only valid UTF-8. A string with an escape is decoded by
// encoding/json and kept only if it marshals back to the same bytes.
func parseString(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", 0, false
	}
	for j := i + 1; j < len(b); {
		switch c := b[j]; {
		case c == '"':
			return string(b[i+1 : j]), j + 1, true
		case c == '\\':
			return parseEscapedString(b, i)
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			return "", 0, false
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				return "", 0, false
			}
			j += size
		}
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
