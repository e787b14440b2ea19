package analysis

import (
	"bytes"
	"strconv"
)

// purgeBodies returns a copy of the Go source src cut down to what an
// export-surface check reads. The contents of every outermost {...}
// that does not open a struct or interface type are deleted, all but
// their newlines, so function bodies and package-level composite
// literals cost the parser and the type checker nothing while every
// declaration keeps its line. An unkeyed [...]T{...} literal becomes
// [N]T{}, N being its element count, so a variable it initializes
// keeps its array type; a keyed one, whose length follows from its
// largest index, is kept verbatim.
//
// Comments and string, rune and raw-string literals are skipped
// whole, so a brace inside one counts for nothing, and comments may
// sit between struct or interface and its brace. The elided length is
// recognized in its gofmt spelling, "[...]". Source that does not
// parse yields output that may not parse either, but never a panic.
func purgeBodies(src []byte) []byte {
	out := make([]byte, 0, len(src))
	typeKw := false // the last token is struct or interface
	ellipsis := -1  // out index of the "..." of a pending [...] literal
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*'):
			j := skipComment(src, i)
			out = append(out, src[i:j]...)
			i = j
		case c == '"' || c == '\'' || c == '`':
			j := skipQuoted(src, i)
			out = append(out, src[i:j]...)
			i, typeKw = j, false
		case isIdentByte(c):
			j := i + 1
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			w := src[i:j]
			typeKw = string(w) == "struct" || string(w) == "interface"
			out = append(out, w...)
			i = j
		case c == '[' && bytes.HasPrefix(src[i:], []byte("[...]")):
			ellipsis = len(out) + 1
			out = append(out, "[...]"...)
			i, typeKw = i+5, false
		case c == '{' && !typeKw:
			end, lines, elems, keyed := braces(src, i)
			if ellipsis >= 0 && keyed {
				out = append(out, src[i:end]...)
			} else {
				if ellipsis >= 0 {
					tail := append([]byte(nil), out[ellipsis+3:]...)
					out = append(strconv.AppendInt(out[:ellipsis], int64(elems), 10), tail...)
				}
				out = append(out, '{')
				for range lines {
					out = append(out, '\n')
				}
				out = append(out, '}')
			}
			i, ellipsis = end, -1
		default:
			if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				typeKw = false
			}
			out = append(out, c)
			i++
		}
	}
	return out
}

// braces scans the braced region of src that opens at src[open]. It
// returns the index just past the matching brace (len(src) when there
// is none), the region's newline count, and its top-level element
// count and whether any of those elements has a key.
func braces(src []byte, open int) (end, lines, elems int, keyed bool) {
	depth, elem := 0, false
	for i := open; i < len(src); {
		c := src[i]
		switch c {
		case '\n':
			lines++
		case ' ', '\t', '\r':
		case '/':
			if j := skipComment(src, i); j > i {
				lines += bytes.Count(src[i:j], []byte("\n"))
				i = j
				continue
			}
			elem = true
		case '"', '\'', '`':
			j := skipQuoted(src, i)
			lines += bytes.Count(src[i:j], []byte("\n"))
			i, elem = j, true
			continue
		case '{', '(', '[':
			if depth++; depth > 1 {
				elem = true
			}
		case '}', ')', ']':
			if depth--; depth == 0 {
				if elem {
					elems++
				}
				return i + 1, lines, elems, keyed
			}
		case ',':
			if depth == 1 {
				elems++
				elem = false
			}
		case ':':
			keyed = keyed || depth == 1
		default:
			elem = true
		}
		i++
	}
	return len(src), lines, elems, keyed
}

// skipComment returns the index just past the comment that opens at
// src[i] (a // comment ends before its newline), or i when none does.
func skipComment(src []byte, i int) int {
	if i+1 >= len(src) {
		return i
	}
	switch src[i+1] {
	case '/':
		if j := bytes.IndexByte(src[i+2:], '\n'); j >= 0 {
			return i + 2 + j
		}
		return len(src)
	case '*':
		if j := bytes.Index(src[i+2:], []byte("*/")); j >= 0 {
			return i + 2 + j + 2
		}
		return len(src)
	}
	return i
}

// skipQuoted returns the index just past the string, rune or raw
// string literal that opens at src[i]. An interpreted literal left
// open ends before its line's newline.
func skipQuoted(src []byte, i int) int {
	q := src[i]
	if q == '`' {
		if j := bytes.IndexByte(src[i+1:], '`'); j >= 0 {
			return i + 1 + j + 1
		}
		return len(src)
	}
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case '\\':
			j++
		case q:
			return j + 1
		case '\n':
			return j
		}
	}
	return len(src)
}

// isIdentByte reports whether c can be part of an identifier, keyword
// or number; every byte of a multi-byte UTF-8 letter counts.
func isIdentByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c >= 0x80
}
