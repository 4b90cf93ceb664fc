package sqlish

import "testing"

// FuzzParse feeds arbitrary bytes — what POST /execz and vupdate -f hand
// the parser — to Parse and ParseScript. Neither may panic, and a
// single-statement parse and a script parse of the same input must
// agree. The seed corpus under testdata/fuzz/FuzzParse covers the
// lexer's edge cases: doubled and unterminated quotes, comments,
// foreign quoting styles, non-ASCII and raw high bytes in identifiers,
// stray signs, and deep nesting (a statement nests one level, SHOW …
// FOR <dml>, and the parser refuses more before descending).
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		input := string(data)
		stmt, err := Parse(input)
		stmts, serr := ParseScript(input)
		if err != nil {
			return
		}
		if serr != nil || len(stmts) != 1 {
			t.Fatalf("Parse accepted %q as %T but ParseScript gave %d statements, err %v", input, stmt, len(stmts), serr)
		}
	})
}
