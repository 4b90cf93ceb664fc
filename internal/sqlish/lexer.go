// Package sqlish implements a small SQL-like surface language for the
// view-update engine: domain/table/view DDL, single-tuple view updates
// (INSERT / DELETE / UPDATE), SELECT for inspection, and translator
// administration (policies, defaults, candidate listing). cmd/vupdate
// wraps it in a REPL.
//
// A Session holds no row logic of its own: which row a WHERE means is
// view.Select's answer and what a statement asks of a view is
// core.BuildRequest's, the same two functions the wire uses. BEGIN
// stages the way a wire transaction does — a storage.Overlay over a
// copy-on-write snapshot of the live database — so statements inside a
// transaction read "base + delta" and COMMIT applies the overlay's own
// diff; nothing is cloned or scanned whole.
package sqlish

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single punctuation: ( ) , ; = . *
)

// token is one lexeme with its source position (for error messages).
type token struct {
	kind tokenKind
	text string // identifier (original case), number, string body, punct
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// lex splits the input into tokens. Strings are single-quoted with ”
// as the escaped quote. Line comments start with --.
func lex(input string) ([]token, error) {
	var out []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqlish: unterminated string at offset %d", start)
			}
			out = append(out, token{kind: tokString, text: b.String(), pos: start})
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '=' || c == '.' || c == '*':
			out = append(out, token{kind: tokPunct, text: string(c), pos: i})
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			start := i
			if c == '-' {
				i++
				if i >= n || input[i] < '0' || input[i] > '9' {
					return nil, fmt.Errorf("sqlish: stray '-' at offset %d", start)
				}
			}
			for i < n && input[i] >= '0' && input[i] <= '9' {
				i++
			}
			out = append(out, token{kind: tokNumber, text: input[start:i], pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			out = append(out, token{kind: tokIdent, text: input[start:i], pos: start})
		default:
			return nil, fmt.Errorf("sqlish: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: n})
	return out, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// cursor walks a token stream.
type cursor struct {
	toks []token
	i    int
}

func (c *cursor) peek() token { return c.toks[c.i] }

func (c *cursor) next() token {
	t := c.toks[c.i]
	if t.kind != tokEOF {
		c.i++
	}
	return t
}

// isKeyword reports whether the next token is the given keyword
// (case-insensitive identifier).
func (c *cursor) isKeyword(kw string) bool {
	t := c.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (c *cursor) acceptKeyword(kw string) bool {
	if c.isKeyword(kw) {
		c.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (c *cursor) expectKeyword(kw string) error {
	if !c.acceptKeyword(kw) {
		return fmt.Errorf("sqlish: expected %s, got %s", strings.ToUpper(kw), c.peek())
	}
	return nil
}

// acceptPunct consumes the punctuation if present.
func (c *cursor) acceptPunct(p string) bool {
	t := c.peek()
	if t.kind == tokPunct && t.text == p {
		c.next()
		return true
	}
	return false
}

// expectPunct consumes the punctuation or fails.
func (c *cursor) expectPunct(p string) error {
	if !c.acceptPunct(p) {
		return fmt.Errorf("sqlish: expected %q, got %s", p, c.peek())
	}
	return nil
}

// expectIdent consumes an identifier or fails.
func (c *cursor) expectIdent(what string) (string, error) {
	t := c.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlish: expected %s, got %s", what, t)
	}
	c.next()
	return t.text, nil
}
