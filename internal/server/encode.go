package server

import (
	"net/url"
	"strconv"
	"strings"
	"unicode/utf8"

	"dkindex"
)

// The query endpoints render their responses with the append-style encoder
// below instead of reflecting structs through encoding/json: a response is
// mostly rows of {"node":n,"label":"l"}, and building those rows only to
// walk them again was most of what a query allocated. The bytes are exactly
// what json.Encoder wrote for the structs the endpoints used to build; the
// tests keep those structs as the oracle.

// appendQueryBody appends the response object of one answered query and the
// newline a single-query endpoint ends it with.
func appendQueryBody(dst []byte, kind dkindex.Kind, text string, res *dkindex.Result) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, text)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, string(kind))
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(res.Total), 10)
	dst = append(dst, `,"results":[`...)
	for i, n := range res.Nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, `,"label":`...)
		dst = appendJSONString(dst, res.LabelName(n))
		dst = append(dst, '}')
	}
	dst = append(dst, `],"cost":{"IndexNodesVisited":`...)
	dst = strconv.AppendInt(dst, int64(res.Stats.IndexNodesVisited), 10)
	dst = append(dst, `,"DataNodesValidated":`...)
	dst = strconv.AppendInt(dst, int64(res.Stats.DataNodesValidated), 10)
	dst = append(dst, `,"Validations":`...)
	dst = strconv.AppendInt(dst, int64(res.Stats.Validations), 10)
	dst = append(dst, `},"cacheHit":`...)
	dst = strconv.AppendBool(dst, res.CacheHit)
	dst = append(dst, `,"traced":`...)
	dst = strconv.AppendBool(dst, res.Traced)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, res.Generation, 10)
	return append(dst, "}\n"...)
}

// appendResult appends the body of one answered query: the one parked on
// its cache entry when the result carries it, else a fresh encoding, which
// it offers to the entry for the next hit.
func appendResult(dst []byte, kind dkindex.Kind, text string, res *dkindex.Result) []byte {
	if res.Body != nil {
		return append(dst, res.Body...)
	}
	start := len(dst)
	dst = appendQueryBody(dst, kind, text, res)
	res.ParkBody(dst[start:])
	return dst
}

// appendQueryError appends a failed batch item, as encoding/json writes the
// map {"error": ..., "code": "bad_query"} (keys sorted).
func appendQueryError(dst []byte, err error) []byte {
	dst = append(dst, `{"code":"`+codeBadQuery+`","error":`...)
	dst = appendJSONString(dst, err.Error())
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json quotes a string with HTML
// escaping on (its default): the quote, the backslash and the control bytes
// escaped; <, > and & written as \u003c, \u003e and \u0026; U+2028 and U+2029
// as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending: bytes that are copied as they are
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			} else if r == '\u2028' || r == '\u2029' {
				dst = append(append(dst, s[start:i]...), `\u202`...)
				dst = append(dst, hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// queryParam returns the first value of key in a raw query string: what
// url.ParseQuery(raw) followed by Get(key) returns — pairs ParseQuery rejects
// (a semicolon, a malformed escape) skipped as it skips them — without
// building the map of every parameter. A value without escapes is a substring
// of raw.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != key {
			if !strings.ContainsAny(k, "%+") {
				continue
			}
			if uk, err := url.QueryUnescape(k); err != nil || uk != key {
				continue
			}
		}
		if strings.ContainsAny(v, "%+") {
			uv, err := url.QueryUnescape(v)
			if err != nil {
				continue
			}
			v = uv
		}
		return v
	}
	return ""
}
