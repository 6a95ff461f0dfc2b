package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Query is an estimate-family request as the replica serves it and the
// router routes it: the body of POST /estimate and POST /feedback, and the
// values of a GET /estimate query. Optional members carry a Has flag, so a
// decode allocates nothing but x.
type Query struct {
	X         []float64 // encoded binary feature vector, length = model InDim
	Tau       int       // transformed threshold; required unless All
	HasTau    bool
	All       bool    // the whole curve, every τ in [0, TauMax]
	Actual    float64 // /feedback: the cardinality the caller observed
	HasActual bool
}

// maxDepth is encoding/json's nesting limit, which DecodeQuery shares.
const maxDepth = 10000

// DecodeQuery decodes a POST /estimate or /feedback body in one pass without
// reflection. It accepts exactly what encoding/json accepts when it
// unmarshals the body into a struct of these four members, x ([]float64),
// tau (*int), all (bool) and actual (*float64): names match case-
// insensitively, escaped or not; the last of a repeated member wins; null
// clears x, tau and actual and leaves all alone; unknown members may hold
// any JSON value; tau must be an integer; numbers follow JSON's grammar and
// parse with strconv; and the whole document must be valid JSON, an object
// or null. It is stricter in two ways: data after the top-level value and a
// null element of x are errors. X is a fresh slice for every body.
func DecodeQuery(body []byte) (Query, error) {
	d := decoder{b: body}
	var q Query
	d.space()
	var err error
	if d.peek() == '{' {
		err = d.members(func(name []byte) error { return d.member(&q, name) })
	} else {
		start := d.i
		// null leaves the query zero, as encoding/json leaves a struct.
		if err = d.skip(1); err == nil && string(body[start:d.i]) != "null" {
			err = errors.New("body is not a JSON object")
		}
	}
	if err != nil {
		return Query{}, err
	}
	d.space()
	if d.i < len(d.b) {
		return Query{}, d.syntax("after top-level value")
	}
	return q, nil
}

// ReadQuery reads a POST body of at most 1 MiB and decodes it with
// DecodeQuery. It returns the body too, for the router to forward.
func ReadQuery(r *http.Request) ([]byte, Query, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, Query{}, err
	}
	q, err := DecodeQuery(body)
	if err != nil {
		return nil, Query{}, fmt.Errorf("bad JSON body: %v", err)
	}
	return body, q, nil
}

// ReadJSON reads a POST body of at most 1 MiB and unmarshals it into v as
// exactly one JSON value: data after that value is an error, as it is for
// ReadQuery. The admin endpoints, the replica's /admin/reload and
// /admin/autopilot and the router's /admin/rollout, read their bodies with
// it, so a second request glued to the first is refused, not half served.
func ReadJSON(r *http.Request, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("bad JSON body: %v", err)
	}
	return nil
}

// readBody reads a POST body, refusing one past 1 MiB.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("read body: %v", err)
	}
	return body, nil
}

// ParseX parses the x parameter of a GET /estimate query: comma-separated
// numbers, surrounding spaces trimmed and empty components skipped. The
// router routes a GET on the vector it returns and the replica serves that
// same vector, so a GET query's route key is KeyHash of it.
func ParseX(s string) ([]float64, error) {
	var x []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad x component %q", tok)
		}
		x = append(x, v)
	}
	return x, nil
}

// decoder is DecodeQuery's cursor over one body.
type decoder struct {
	b []byte
	i int
}

// peek returns the byte at the cursor, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

func (d *decoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.i], context, d.i)
}

// member decodes the value of the top-level member with raw key name into
// q, or steps over it when it names no member of Query.
func (d *decoder) member(q *Query, name []byte) error {
	switch memberOf(name) {
	case "x":
		x, err := d.floats()
		q.X = x
		return err
	case "tau":
		s, err := d.nullOrNumber("tau")
		if err != nil || s == nil {
			q.Tau, q.HasTau = 0, false
			return err
		}
		n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf(`"tau" %s is not an integer`, s)
		}
		q.Tau, q.HasTau = int(n), true
		return nil
	case "all":
		switch d.peek() {
		case 't':
			q.All = true
			return d.literal("true")
		case 'f':
			q.All = false
			return d.literal("false")
		case 'n':
			return d.literal("null")
		}
		return errors.New(`"all" must be a boolean`)
	case "actual":
		s, err := d.nullOrNumber("actual")
		if err != nil || s == nil {
			q.Actual, q.HasActual = 0, false
			return err
		}
		q.Actual, err = parseFloat(s)
		q.HasActual = true
		return err
	}
	return d.skip(2)
}

// memberOf returns the Query member a raw object key names, lower-cased,
// or "" for any other key. Only ASCII letters fold onto the letters of
// these names, so a key with any other byte, or an escape of one, names no
// member, and neither does a key longer than the longest name.
func memberOf(raw []byte) string {
	var buf [len("actual")]byte
	n := 0
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' { // str has checked the escape
			i++
			switch c = raw[i]; c {
			case '"', '\\', '/':
			case 'u':
				r, _ := strconv.ParseUint(string(raw[i+1:i+5]), 16, 16)
				c, i = byte(r), i+4
				if r >= 0x80 {
					return ""
				}
			default:
				return ""
			}
		}
		if c >= 0x80 || n == len(buf) {
			return ""
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[n] = c
		n++
	}
	for _, name := range [...]string{"x", "tau", "all", "actual"} {
		if string(buf[:n]) == name {
			return name
		}
	}
	return ""
}

// floats decodes x: null, or an array of numbers.
func (d *decoder) floats() ([]float64, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, errors.New(`"x" must be an array of numbers`)
	}
	// Numbers hold no comma, so the commas before the first ']' bound the
	// length of a well-formed x: one allocation.
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	x := make([]float64, 0, bytes.Count(rest, []byte{','})+1)
	err := d.elements(func() error {
		s, err := d.nullOrNumber("x element")
		if err == nil && s == nil {
			err = fmt.Errorf("x[%d] is null", len(x))
		}
		if err != nil {
			return err
		}
		v, err := parseFloat(s)
		x = append(x, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// nullOrNumber steps over null, returning nil, or a number, returning its
// text; any other value is an error naming what.
func (d *decoder) nullOrNumber(what string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return nil, fmt.Errorf("%s must be a number", what)
}

// parseFloat parses a number's text as encoding/json does.
func parseFloat(s []byte) (float64, error) {
	if len(s) == 1 { // one digit: exact, and what ParseFloat returns
		return float64(s[0] - '0'), nil
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range", s)
	}
	return v, nil
}

// skip steps over one JSON value of any type; depth is the nesting level a
// container at the cursor would open.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth > maxDepth {
			return errors.New("exceeded max depth")
		}
		if c == '{' {
			return d.members(func([]byte) error { return d.skip(depth + 1) })
		}
		return d.elements(func() error { return d.skip(depth + 1) })
	case c == '"':
		return d.str()
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// members walks the object at the cursor, calling value with each raw key
// (the bytes between its quotes) and the cursor on the member's value.
func (d *decoder) members(value func(name []byte) error) error {
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		start := d.i
		if err := d.str(); err != nil {
			return err
		}
		name := d.b[start+1 : d.i-1]
		d.space()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.i++
		d.space()
		if err := value(name); err != nil {
			return err
		}
		if done, err := d.next('}', "after object key:value pair"); done || err != nil {
			return err
		}
	}
}

// elements walks the array at the cursor, calling value with the cursor on
// each element.
func (d *decoder) elements(value func() error) error {
	d.i++ // '['
	d.space()
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		if err := value(); err != nil {
			return err
		}
		if done, err := d.next(']', "after array element"); done || err != nil {
			return err
		}
	}
}

// next steps over the comma before another member or element, or over the
// container's closing byte, reporting done.
func (d *decoder) next(closing byte, context string) (done bool, err error) {
	d.space()
	switch d.peek() {
	case ',':
		d.i++
		d.space()
		return false, nil
	case closing:
		d.i++
		return true, nil
	}
	return false, d.syntax(context)
}

// literal consumes lit, which must start at the cursor.
func (d *decoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.peek() != lit[k] {
			return d.syntax("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// str steps over the string at the cursor, checking its escapes and that no
// control character appears raw. Other bytes, invalid UTF-8 included, pass
// as they do for encoding/json.
func (d *decoder) str() error {
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return nil
		case c < 0x20:
			return d.syntax("in string literal")
		case c != '\\':
			continue
		}
		d.i++
		switch d.peek() {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			for k := 0; k < 4; k++ {
				if d.i++; !isHex(d.peek()) {
					return d.syntax("in \\u hexadecimal character escape")
				}
			}
		default:
			return d.syntax("in string escape code")
		}
	}
	return d.syntax("in string literal")
}

// number steps over the JSON number at the cursor and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntax("in numeric literal")
	}
	if d.peek() == '.' {
		d.i++
		if !isDigit(d.peek()) {
			return nil, d.syntax("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.peek()) {
			return nil, d.syntax("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.b[start:d.i], nil
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.i++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
