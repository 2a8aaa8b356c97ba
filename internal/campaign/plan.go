package campaign

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// A typePlan is how json.Marshal writes values of one Go type, worked out
// once by reflection (newTypePlan) so that the cache key's pre-image and
// the store's entries are written without encoding/json. It covers exactly
// the subset of json.Marshal the keyed and stored types use:
//
//   - structs: exported, non-embedded fields in declaration order, under
//     their json tag name if they have one, skipping "-", honouring
//     omitempty;
//   - bool, every int and uint kind, float64, strings (named ones too);
//   - arrays, slices (nil is null; []byte, which json.Marshal writes as
//     base64, is refused) and pointers (nil is null).
//
// Any other kind, a type that marshals itself (json.Marshaler or
// encoding.TextMarshaler, on the value or its pointer), json.Number (which
// json.Marshal writes unquoted), a type that reaches itself, an embedded
// field, any tag option but omitempty, or a tag name outside
// [A-Za-z0-9_.-] makes newTypePlan fail: a type the plan cannot write
// exactly as json.Marshal does is not written at all.
//
// A plan reads and writes values through their address and the offsets
// reflection gave it, never through reflect.Value: encode and decode must
// only ever be handed a pointer to a value of the plan's own type, which
// the typed entry points (appendPreimage, appendRuns, decodeRuns)
// guarantee.
type typePlan struct {
	typ  reflect.Type
	kind reflect.Kind
	// fields are the struct's fields json.Marshal writes, in order, with
	// every field that is a struct whose fields are never omitted written
	// in its place: its fields join this list, their literals carrying the
	// struct's key and braces, so one loop writes the whole flattened
	// struct.
	fields []fieldPlan
	close  string    // Struct: "}", after the closing braces of a flattened last field
	elem   *typePlan // Pointer, Slice, Array
	// decodable: a struct whose fields are all exported and untagged and
	// are themselves decodable, or exactly uint64 or string (a named type
	// may change how json.Marshal writes it, as json.Number does). Only
	// such plans can read a stored entry back (decodeRuns).
	decodable bool
}

// A fieldPlan writes lit, then the value of kind at offset; a zero kind
// writes lit alone. lit is `,"name":` behind any closing braces of the
// flattened struct before it and ahead of any opening ones (`,"A":{"B":`);
// the first field written turns its comma into the struct's '{'.
type fieldPlan struct {
	lit       string
	kind      reflect.Kind
	offset    uintptr
	omitEmpty bool
	plan      *typePlan
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

var (
	uint64Type        = reflect.TypeOf(uint64(0))
	stringType        = reflect.TypeOf("")
	marshalerType     = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	numberType        = reflect.TypeOf(json.Number(""))
)

// newTypePlan plans t and every type it reaches.
func newTypePlan(t reflect.Type) (*typePlan, error) {
	return planType(t, map[reflect.Type]*typePlan{})
}

// planType plans t, sharing the plans already made in seen. A type that
// reaches itself is refused: no keyed or stored type does.
func planType(t reflect.Type, seen map[reflect.Type]*typePlan) (*typePlan, error) {
	if p, ok := seen[t]; ok {
		if p == nil {
			return nil, fmt.Errorf("campaign: %s contains itself", t)
		}
		return p, nil
	}
	if pt := reflect.PointerTo(t); pt.Implements(marshalerType) || pt.Implements(textMarshalerType) {
		return nil, fmt.Errorf("campaign: %s marshals itself", t)
	}
	if t == numberType {
		return nil, fmt.Errorf("campaign: %s is written unquoted", t)
	}
	seen[t] = nil
	p := &typePlan{typ: t, kind: t.Kind()}
	var err error
	switch p.kind {
	case reflect.Bool, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.decodable = t == uint64Type
	case reflect.String:
		p.decodable = t == stringType
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("campaign: %s marshals as base64", t)
		}
		p.elem, err = planType(t.Elem(), seen)
	case reflect.Array, reflect.Pointer:
		p.elem, err = planType(t.Elem(), seen)
	case reflect.Struct:
		err = p.planFields(seen)
	default:
		return nil, fmt.Errorf("campaign: %s has unsupported kind %s", t, p.kind)
	}
	if err != nil {
		return nil, err
	}
	seen[t] = p
	return p, nil
}

// planFields plans the struct's fields as json.Marshal selects and names
// them, flattening each struct field that never omits one of its own.
func (p *typePlan) planFields(seen map[reflect.Type]*typePlan) error {
	t := p.typ
	p.decodable = true
	names := map[string]bool{}
	closing := "" // braces owed by the flattened struct just added
	add := func(fp fieldPlan) {
		switch {
		case closing == "":
		case fp.omitEmpty: // its literal may not be written
			p.fields = append(p.fields, fieldPlan{lit: closing})
		default:
			fp.lit = closing + fp.lit
		}
		closing = ""
		p.fields = append(p.fields, fp)
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return fmt.Errorf("campaign: %s.%s is embedded", t, f.Name)
		}
		tag, tagged := f.Tag.Lookup("json")
		if !f.IsExported() || tag == "-" {
			p.decodable = false
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if !plainName(name) || (opts != "" && opts != "omitempty") {
			return fmt.Errorf("campaign: %s.%s has json tag %q", t, f.Name, tag)
		}
		if names[name] {
			return fmt.Errorf("campaign: %s has two fields named %q", t, name)
		}
		names[name] = true
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		lit := "," + string(key) + ":"
		sub, err := planType(f.Type, seen)
		if err != nil {
			return err
		}
		p.decodable = p.decodable && !tagged && sub.decodable
		switch {
		case sub.kind == reflect.Struct && len(sub.fields) == 0:
			add(fieldPlan{lit: lit + "{}"}) // a struct is never omitted
		case sub.kind == reflect.Struct && !sub.omits():
			for j, sf := range sub.fields {
				if j == 0 {
					sf.lit = lit + "{" + sf.lit[1:]
				}
				sf.offset += f.Offset
				add(sf)
			}
			closing = sub.close
		default:
			add(fieldPlan{lit: lit, kind: sub.kind, offset: f.Offset, omitEmpty: opts == "omitempty", plan: sub})
		}
	}
	p.close = closing + "}"
	return nil
}

// omits reports whether the struct plan may leave out a field.
func (p *typePlan) omits() bool {
	for _, f := range p.fields {
		if f.omitEmpty {
			return true
		}
	}
	return false
}

// plainName reports whether json.Marshal keeps name as the field's key:
// non-empty and made of ASCII letters, digits, '_', '-' and '.' only.
func plainName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// encode appends json.Marshal's bytes for the value at ptr, of type p.typ.
// It fails only on a float json.Marshal refuses (NaN, ±Inf).
func (p *typePlan) encode(b []byte, ptr unsafe.Pointer) ([]byte, error) {
	var err error
	var data unsafe.Pointer // Slice or Array: the first element
	var n int
	switch p.kind {
	case reflect.Struct:
		open := len(b)
		for i := range p.fields {
			f := &p.fields[i]
			fp := unsafe.Add(ptr, f.offset)
			if f.omitEmpty && f.plan.empty(fp) {
				continue
			}
			b = append(b, f.lit...)
			switch f.kind { // the common leaves inline: a call each costs KeyOf ~10%
			case reflect.Invalid:
			case reflect.Int:
				if v := *(*int)(fp); uint(v) < 10 {
					b = append(b, byte('0'+v))
				} else {
					b = strconv.AppendInt(b, int64(v), 10)
				}
			case reflect.Uint64:
				if v := *(*uint64)(fp); v < 10 {
					b = append(b, byte('0'+v))
				} else {
					b = strconv.AppendUint(b, v, 10)
				}
			case reflect.Bool:
				if *(*bool)(fp) {
					b = append(b, 't', 'r', 'u', 'e')
				} else {
					b = append(b, 'f', 'a', 'l', 's', 'e')
				}
			case reflect.String:
				b = appendString(b, *(*string)(fp))
			default:
				if b, err = f.plan.encode(b, fp); err != nil {
					return nil, err
				}
			}
		}
		if len(b) == open {
			return append(b, "{}"...), nil
		}
		b[open] = '{' // the first field's comma
		return append(b, p.close...), nil
	case reflect.Bool:
		return strconv.AppendBool(b, *(*bool)(ptr)), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, loadInt(p.kind, ptr), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, loadUint(p.kind, ptr), 10), nil
	case reflect.Float64:
		return appendFloat(b, *(*float64)(ptr))
	case reflect.String:
		return appendString(b, *(*string)(ptr)), nil
	case reflect.Pointer:
		if ptr = *(*unsafe.Pointer)(ptr); ptr == nil {
			return append(b, "null"...), nil
		}
		return p.elem.encode(b, ptr)
	case reflect.Slice:
		h := (*sliceHeader)(ptr)
		if h.data == nil {
			return append(b, "null"...), nil
		}
		data, n = h.data, h.len
	case reflect.Array:
		data, n = ptr, p.typ.Len()
	}
	b = append(b, '[')
	for i, size := 0, p.elem.typ.Size(); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = p.elem.encode(b, unsafe.Add(data, uintptr(i)*size)); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// empty is json.Marshal's omitempty test for the value at ptr; a struct
// is never empty.
func (p *typePlan) empty(ptr unsafe.Pointer) bool {
	switch p.kind {
	case reflect.Bool:
		return !*(*bool)(ptr)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return loadInt(p.kind, ptr) == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return loadUint(p.kind, ptr) == 0
	case reflect.Float64:
		return *(*float64)(ptr) == 0
	case reflect.String:
		return len(*(*string)(ptr)) == 0
	case reflect.Pointer:
		return *(*unsafe.Pointer)(ptr) == nil
	case reflect.Slice:
		return (*sliceHeader)(ptr).len == 0
	case reflect.Array:
		return p.typ.Len() == 0
	}
	return false
}

// loadInt reads the signed integer of kind k at ptr.
func loadInt(k reflect.Kind, ptr unsafe.Pointer) int64 {
	switch k {
	case reflect.Int8:
		return int64(*(*int8)(ptr))
	case reflect.Int16:
		return int64(*(*int16)(ptr))
	case reflect.Int32:
		return int64(*(*int32)(ptr))
	case reflect.Int64:
		return *(*int64)(ptr)
	}
	return int64(*(*int)(ptr))
}

// loadUint reads the unsigned integer of kind k at ptr.
func loadUint(k reflect.Kind, ptr unsafe.Pointer) uint64 {
	switch k {
	case reflect.Uint8:
		return uint64(*(*uint8)(ptr))
	case reflect.Uint16:
		return uint64(*(*uint16)(ptr))
	case reflect.Uint32:
		return uint64(*(*uint32)(ptr))
	case reflect.Uint64:
		return *(*uint64)(ptr)
	case reflect.Uintptr:
		return uint64(*(*uintptr)(ptr))
	}
	return uint64(*(*uint)(ptr))
}

// appendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("campaign: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString appends s as json.Marshal writes it: verbatim between
// quotes when it holds nothing json.Marshal escapes, else through
// encoding/json.
func appendString(b []byte, s string) []byte {
	if verbatim(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	// Marshal a copy: s itself must not escape, or every keyed config
	// would be moved to the heap.
	q, _ := json.Marshal(strings.Clone(s)) // a string always marshals
	return append(b, q...)
}

// verbatim reports whether json.Marshal writes s unchanged between its
// quotes: valid UTF-8 with no quote, backslash, control character, <, >,
// &, U+2028 or U+2029.
func verbatim(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}
