package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// The /v1/embed codec. Every embed decodes one small fixed-shape body and
// encodes one small fixed-shape response, and encoding/json's reflection
// was most of the handler's own CPU. Both directions are written out by
// hand for the shapes callers actually send and receive, with the strconv
// calls encoding/json itself makes, so the bytes on the wire and the
// values decoded are the ones encoding/json would produce. Anything off
// the fixed shape goes to encoding/json unchanged.

// jsonContentType is the Content-Type value of every JSON response. It is
// shared: header maps hold it read-only (net/http clones headers before
// it writes them, and Set and Add never write into an existing value).
var jsonContentType = []string{"application/json"}

// decodeEmbedRequest decodes a POST /v1/embed body. The canonical body —
// one JSON object whose keys are EmbedRequest's five tags, each at most
// once, with plain JSON numbers as values — is parsed directly; any other
// body goes to json.Unmarshal, which decides whether it is valid and
// words the error when it is not.
func decodeEmbedRequest(b []byte) (EmbedRequest, error) {
	var er EmbedRequest
	if parseEmbedRequest(b, &er) {
		return er, nil
	}
	// A separate variable, so only this route moves a request to the heap.
	var slow EmbedRequest
	err := json.Unmarshal(b, &slow)
	return slow, err
}

// parseEmbedRequest is decodeEmbedRequest's fast path. It reports false,
// leaving er partly written, for any body outside the canonical shape.
// Every body it accepts, json.Unmarshal accepts too, with the same
// result (FuzzEmbedBody checks this).
//
//olive:hotpath per-request body decode; no reflection, no allocation
func parseEmbedRequest(b []byte, er *EmbedRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	var seen uint8
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			if i == len(b) || b[i] != '"' {
				return false
			}
			k := bytes.IndexByte(b[i+1:], '"')
			if k < 0 {
				return false
			}
			key := b[i+1 : i+1+k]
			i = skipSpace(b, i+2+k)
			if i == len(b) || b[i] != ':' {
				return false
			}
			i = skipSpace(b, i+1)
			n := numberLen(b[i:])
			if n == 0 {
				return false
			}
			num := b[i : i+n]
			i = skipSpace(b, i+n)
			var bit uint8
			var ok bool
			switch string(key) {
			case "app":
				bit = 1
				er.App, ok = parseJSONInt(num)
			case "ingress":
				bit = 2
				er.Ingress, ok = parseJSONInt(num)
			case "demand":
				bit = 4
				var err error
				er.Demand, err = strconv.ParseFloat(string(num), 64)
				ok = err == nil
			case "duration":
				bit = 8
				er.Duration, ok = parseJSONInt(num)
			case "arrive":
				bit = 16
				er.Arrive, ok = parseJSONInt(num)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if i == len(b) {
				return false
			}
			if b[i] == '}' {
				i++
				break
			}
			if b[i] != ',' {
				return false
			}
			i = skipSpace(b, i+1)
		}
	}
	return skipSpace(b, i) == len(b)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberLen returns the length of the JSON number at the start of b, or 0
// if there is none.
func numberLen(b []byte) int {
	n := 0
	if n < len(b) && b[n] == '-' {
		n++
	}
	switch {
	case n < len(b) && b[n] == '0':
		n++
	case n < len(b) && b[n] >= '1' && b[n] <= '9':
		n = digitsEnd(b, n+1)
	default:
		return 0
	}
	if n < len(b) && b[n] == '.' {
		end := digitsEnd(b, n+1)
		if end == n+1 {
			return 0
		}
		n = end
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		end := digitsEnd(b, n)
		if end == n {
			return 0
		}
		n = end
	}
	return n
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// parseJSONInt parses a JSON number into an int field as encoding/json
// does, with strconv.ParseInt: a fraction or exponent, or a value outside
// int64, is an error.
func parseJSONInt(num []byte) (int, bool) {
	v, err := strconv.ParseInt(string(num), 10, 64)
	return int(v), err == nil
}

// writeEmbedResponse answers 200 with er, exactly as writeJSON would —
// same status, headers and bytes — but encoded by hand into buf, which is
// reset first. A Cost encoding/json cannot encode goes to writeJSON.
func writeEmbedResponse(w http.ResponseWriter, buf *bytes.Buffer, er *EmbedResponse) {
	buf.Reset()
	b, ok := appendEmbedResponse(buf.AvailableBuffer(), er)
	if !ok {
		// A copy, so only this route moves the response to the heap.
		slow := *er
		writeJSON(w, http.StatusOK, &slow)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// appendEmbedResponse appends er to b as json.Encoder.Encode writes it,
// trailing newline included. ok is false, with b unchanged, when Cost is
// NaN or infinite, which encoding/json refuses.
//
//olive:hotpath per-request response encode; no reflection
func appendEmbedResponse(b []byte, er *EmbedResponse) (_ []byte, ok bool) {
	if math.IsNaN(er.Cost) || math.IsInf(er.Cost, 0) {
		return b, false
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(er.ID), 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(er.Shard), 10)
	b = append(b, `,"slot":`...)
	b = strconv.AppendInt(b, int64(er.Slot), 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendBool(b, er.Accepted)
	b = append(b, `,"planned":`...)
	b = strconv.AppendBool(b, er.Planned)
	b = append(b, `,"cost":`...)
	b = appendJSONFloat(b, er.Cost)
	if len(er.Nodes) > 0 {
		b = append(b, `,"nodes":[`...)
		for i, n := range er.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	if len(er.Preempted) > 0 {
		b = append(b, `,"preempted":[`...)
		for i, id := range er.Preempted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, er.LatencyUS, 10)
	return append(b, "}\n"...), true
}

// appendJSONFloat appends a finite float64 the way encoding/json does:
// the shortest representation, in exponent form only below 1e-6 or from
// 1e21 up, with a one-digit negative exponent written without its
// leading zero (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
