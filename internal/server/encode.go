package server

import (
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"medrelax/internal/engine"
)

// The GET /relax and POST /relax/batch bodies, success and error items
// alike, are appended field by field into a pooled buffer and sent with one
// Write. The bytes are exactly what encoding/json writes for the shapes the
// fields spell — {"context","results","term"} in key order, RelaxResult and
// Explain in struct order with their omitempty fields, {"error"}, the
// {"items":[{"status","body"}]} envelope and the trailing newline — and
// encode_test.go holds encoding/json to that as the oracle. Clients rank on
// these bytes, so they do not move.

// jsonContentType is the Content-Type value every encoded body carries. The
// header map shares it instead of allocating a fresh one-element slice per
// response; nothing mutates a header value slice in place.
var jsonContentType = []string{"application/json"}

// maxPooledBody is the largest buffer returned to the pool: a 256-item
// explain batch should not pin its megabytes for every later hit.
const maxPooledBody = 256 << 10

// encoder appends one response body.
type encoder struct {
	b []byte
	// err is a value encoding/json refuses to encode, a NaN or infinite
	// float. Like encoding/json, the encoder then sends no body at all.
	err error
}

var encoders = sync.Pool{New: func() any { return &encoder{b: make([]byte, 0, 2048)} }}

func newEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.b, e.err = e.b[:0], nil
	return e
}

// send writes the body under status with one Write and releases the
// encoder; e must not be used afterwards.
func (e *encoder) send(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if e.err != nil {
		log.Printf("server: encoding response: %v", e.err)
	} else {
		w.Write(e.b)
	}
	if cap(e.b) <= maxPooledBody {
		encoders.Put(e)
	}
}

// answer appends a relax answer: {"context":…,"results":[…],"term":…}.
func (e *encoder) answer(term, qctx string, results []RelaxResult) {
	e.b = append(e.b, `{"context":`...)
	e.b = appendString(e.b, qctx)
	e.b = append(e.b, `,"results":`...)
	if results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.result(&results[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"term":`...)
	e.b = appendString(e.b, term)
	e.b = append(e.b, '}')
}

func (e *encoder) result(r *RelaxResult) {
	e.b = append(e.b, `{"concept":`...)
	e.b = appendString(e.b, r.Concept)
	e.b = append(e.b, `,"score":`...)
	e.float(r.Score)
	e.b = append(e.b, `,"hops":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Hops), 10)
	e.b = append(e.b, `,"instances":`...)
	e.b = appendStrings(e.b, r.Instances)
	if len(r.Sources) > 0 {
		e.b = append(e.b, `,"sources":`...)
		e.b = appendStrings(e.b, r.Sources)
	}
	if r.Explain != nil {
		e.b = append(e.b, `,"explain":`...)
		e.explain(r.Explain)
	}
	e.b = append(e.b, '}')
}

func (e *encoder) explain(x *engine.Explain) {
	e.b = append(e.b, `{"source":`...)
	e.b = appendString(e.b, x.Source)
	e.b = append(e.b, `,"query":`...)
	e.b = appendString(e.b, x.Query)
	e.b = append(e.b, `,"subsumer":`...)
	e.b = appendString(e.b, x.Subsumer)
	if len(x.Subsumers) > 0 {
		e.b = append(e.b, `,"subsumers":`...)
		e.b = appendStrings(e.b, x.Subsumers)
	}
	e.b = append(e.b, `,"generalizations":`...)
	e.b = strconv.AppendInt(e.b, int64(x.Generalizations), 10)
	e.b = append(e.b, `,"specializations":`...)
	e.b = strconv.AppendInt(e.b, int64(x.Specializations), 10)
	e.b = append(e.b, `,"pathWeight":`...)
	e.float(x.PathWeight)
	e.b = append(e.b, `,"edges":`...)
	if x.Edges == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, ed := range x.Edges {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"from":`...)
			e.b = appendString(e.b, ed.From)
			e.b = append(e.b, `,"to":`...)
			e.b = appendString(e.b, ed.To)
			e.b = append(e.b, `,"direction":`...)
			e.b = appendString(e.b, ed.Direction)
			e.b = append(e.b, `,"dist":`...)
			e.b = strconv.AppendInt(e.b, int64(ed.Dist), 10)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// float appends f as encoding/json does: the shortest representation that
// round-trips, in 'f' form unless |f| < 1e-6 or |f| >= 1e21, whose 'e' form
// drops a leading zero of a negative exponent (1e-07 is 1e-7).
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// appendStrings appends ss as a JSON array, null when nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: `"` and `\` backslashed; \b, \f, \n, \r and \t short;
// every other control byte and <, > and & as \u00XX; an invalid UTF-8 byte
// as the escape of U+FFFD; U+2028 and U+2029 escaped as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendError appends the one error body shape, {"error":msg}, without a
// newline: a batch item's body as a replica writes it.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendString(dst, msg)
	return append(dst, '}')
}

// WriteError answers status with {"error":msg} and its newline.
func WriteError(w http.ResponseWriter, status int, msg string) {
	e := newEncoder()
	e.b = append(AppendError(e.b, msg), '\n')
	e.send(w, status)
}

// item opens batch item i: the envelope before it, its status, and the
// "body" key, whose value the caller appends before closing the item with
// '}'.
func (e *encoder) item(i, status int) {
	if i == 0 {
		e.b = append(e.b, `{"items":[`...)
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, `{"status":`...)
	e.b = strconv.AppendInt(e.b, int64(status), 10)
	e.b = append(e.b, `,"body":`...)
}

// batchEnd closes the envelope of a batch of at least one item.
const batchEnd = "]}\n"

// WriteBatch answers 200 with the POST /relax/batch envelope around items
// whose bodies are already encoded, copied verbatim (an empty body is
// null): the router merges the replicas' item bodies through it, so the
// merged response is the bytes one replica would have written. items must
// not be empty.
func WriteBatch(w http.ResponseWriter, items []BatchItemResponse) {
	e := newEncoder()
	for i, it := range items {
		e.item(i, it.Status)
		if len(it.Body) == 0 {
			e.b = append(e.b, "null"...)
		} else {
			e.b = append(e.b, it.Body...)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, batchEnd...)
	e.send(w, http.StatusOK)
}
