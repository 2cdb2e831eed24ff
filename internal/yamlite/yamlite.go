// Package yamlite implements a small, strict subset of YAML sufficient for
// EO-ML workflow configuration files — the YAML the paper's users write to
// declare compute endpoints, LAADS credentials, MODIS products, time spans,
// and output paths.
//
// Supported syntax:
//
//   - block mappings ("key: value") and nested mappings via indentation
//   - block sequences ("- item"), including "- key: value" inline starts
//   - flow sequences ("[a, b, c]") and flow mappings ("{a: 1, b: 2}")
//   - scalars: null/~, booleans, base-10 integers, floats, single- and
//     double-quoted strings (with \n, \t, \\, \" escapes), plain strings
//   - comments ("# ..." to end of line, outside quotes)
//
// Anything outside this subset (anchors, aliases, tags, multi-document
// streams, block scalars) is rejected with a line-numbered error. The
// parser produces map[string]any / []any / scalar trees like a dynamic
// YAML decoder would.
package yamlite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Parse decodes a yamlite document into a tree of map[string]any, []any,
// string, int64, float64, bool, and nil values.
func Parse(data []byte) (any, error) {
	p := &parser{}
	p.split(string(data))
	if p.err != nil {
		return nil, p.err
	}
	if len(p.lines) == 0 {
		return nil, nil
	}
	v, next, err := p.parseBlock(0, p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(p.lines) {
		return nil, fmt.Errorf("yamlite: line %d: trailing content at lower indentation", p.lines[next].num)
	}
	return v, nil
}

// ParseMap decodes a document whose root must be a mapping.
func ParseMap(data []byte) (map[string]any, error) {
	v, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return map[string]any{}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("yamlite: document root is %T, want mapping", v)
	}
	return m, nil
}

type line struct {
	num    int // 1-based source line
	indent int
	text   string // content with indentation stripped
}

type parser struct {
	lines []line
	err   error
}

// split tokenizes the input into meaningful lines, stripping comments and
// blank lines.
func (p *parser) split(src string) {
	for i, raw := range strings.Split(src, "\n") {
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \t\r")
		content := strings.TrimLeft(trimmed, " \t")
		if content == "" {
			continue
		}
		if strings.ContainsRune(trimmed[:len(trimmed)-len(content)], '\t') {
			// YAML forbids tabs in indentation; enforcing it here gives a
			// much better error than a confusing structure mismatch later.
			if p.err == nil {
				p.err = fmt.Errorf("yamlite: line %d: tab character in indentation", i+1)
			}
			return
		}
		indent := len(trimmed) - len(content)
		p.lines = append(p.lines, line{num: i + 1, indent: indent, text: content})
	}
}

// stripComment removes a trailing comment, honoring quoted strings.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inDouble && c == '\\':
			i++ // the escape consumes the next byte, including `\"` and `\\`
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == '#' && !inSingle && !inDouble:
			// A '#' only begins a comment at line start or after whitespace.
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses a block (mapping, sequence, or bare scalar) whose
// entries all sit at the given indent, starting at line index i. It
// returns the value and the index of the first unconsumed line.
func (p *parser) parseBlock(i, indent int) (any, int, error) {
	if i >= len(p.lines) {
		return nil, i, nil
	}
	ln := p.lines[i]
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(i, indent)
	}
	if !looksLikeMapEntry(ln.text) {
		// A lone non-entry line is a scalar document (or scalar value of
		// the enclosing key): `null`, `42`, `[1, 2]`. Marshal emits these
		// for scalar trees, so Parse must accept them back.
		v, err := parseScalar(ln.text, ln.num)
		if err != nil {
			return nil, i, err
		}
		return v, i + 1, nil
	}
	return p.parseMapping(i, indent)
}

func (p *parser) parseSequence(i, indent int) (any, int, error) {
	var seq []any
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.indent != indent || !(strings.HasPrefix(ln.text, "- ") || ln.text == "-") {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		switch {
		case rest == "":
			// Nested block on following lines.
			if i+1 < len(p.lines) && p.lines[i+1].indent > indent {
				v, next, err := p.parseBlock(i+1, p.lines[i+1].indent)
				if err != nil {
					return nil, i, err
				}
				seq = append(seq, v)
				i = next
			} else {
				seq = append(seq, nil)
				i++
			}
		case looksLikeMapEntry(rest):
			// "- key: value" starts an inline mapping whose further keys are
			// indented past the dash.
			itemIndent := indent + (len(ln.text) - len(rest))
			p.lines[i] = line{num: ln.num, indent: itemIndent, text: rest}
			v, next, err := p.parseMapping(i, itemIndent)
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i = next
		default:
			v, err := parseScalar(rest, ln.num)
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i++
		}
	}
	return seq, i, nil
}

func (p *parser) parseMapping(i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, i, fmt.Errorf("yamlite: line %d: unexpected indentation", ln.num)
			}
			break
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, i, fmt.Errorf("yamlite: line %d: sequence entry inside mapping", ln.num)
		}
		key, rest, err := splitKey(ln.text, ln.num)
		if err != nil {
			return nil, i, err
		}
		if _, dup := m[key]; dup {
			return nil, i, fmt.Errorf("yamlite: line %d: duplicate key %q", ln.num, key)
		}
		if rest == "" {
			// Value is a nested block (or null if nothing deeper follows).
			if i+1 < len(p.lines) && p.lines[i+1].indent > indent {
				v, next, err := p.parseBlock(i+1, p.lines[i+1].indent)
				if err != nil {
					return nil, i, err
				}
				m[key] = v
				i = next
			} else {
				m[key] = nil
				i++
			}
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, i, err
		}
		m[key] = v
		i++
	}
	return m, i, nil
}

// looksLikeMapEntry reports whether s begins with "key:" at the top level
// (outside quotes and flow collections).
func looksLikeMapEntry(s string) bool {
	_, _, err := splitKey(s, 0)
	return err == nil
}

// splitKey splits "key: value" (or "key:") into the unquoted key and the
// raw remainder.
func splitKey(s string, lineNum int) (key, rest string, err error) {
	inSingle, inDouble, depth := false, false, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inDouble && c == '\\':
			i++ // the escape consumes the next byte, including `\"` and `\\`
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case (c == '[' || c == '{') && !inSingle && !inDouble:
			depth++
		case (c == ']' || c == '}') && !inSingle && !inDouble:
			depth--
		case c == ':' && !inSingle && !inDouble && depth == 0:
			if i+1 < len(s) && s[i+1] != ' ' {
				continue // "12:30" style plain scalar, not a key
			}
			rawKey := strings.TrimSpace(s[:i])
			if rawKey == "" {
				return "", "", fmt.Errorf("yamlite: line %d: empty key", lineNum)
			}
			k, err := unquoteIfQuoted(rawKey, lineNum)
			if err != nil {
				return "", "", err
			}
			return k, strings.TrimSpace(s[i+1:]), nil
		}
	}
	return "", "", fmt.Errorf("yamlite: line %d: expected \"key: value\"", lineNum)
}

func unquoteIfQuoted(s string, lineNum int) (string, error) {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') {
		v, err := parseScalar(s, lineNum)
		if err != nil {
			return "", err
		}
		str, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("yamlite: line %d: quoted key is not a string", lineNum)
		}
		return str, nil
	}
	return s, nil
}

// parseScalar interprets a trimmed scalar or flow-collection literal.
func parseScalar(s string, lineNum int) (any, error) {
	switch {
	case s == "" || s == "~" || s == "null" || s == "Null" || s == "NULL":
		return nil, nil
	case s == "true" || s == "True" || s == "TRUE":
		return true, nil
	case s == "false" || s == "False" || s == "FALSE":
		return false, nil
	}
	if s[0] == '[' || s[0] == '{' {
		return parseFlow(s, lineNum)
	}
	if s[0] == '"' {
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated double-quoted string", lineNum)
		}
		return unescapeDouble(s[1:len(s)-1], lineNum)
	}
	if s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated single-quoted string", lineNum)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	if s[0] == '&' || s[0] == '*' || s[0] == '!' || s[0] == '|' || s[0] == '>' {
		return nil, fmt.Errorf("yamlite: line %d: unsupported YAML feature %q", lineNum, s[0])
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

func unescapeDouble(s string, lineNum int) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("yamlite: line %d: dangling escape", lineNum)
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'a':
			b.WriteByte('\a')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'v':
			b.WriteByte('\v')
		case 'x', 'u', 'U':
			// Hex escapes, as strconv.Quote emits for control characters
			// and non-printable runes: \xHH (one byte), \uHHHH, \UHHHHHHHH
			// (one rune). Marshal quotes with strconv.Quote, so Parse must
			// read everything it can produce.
			digits := map[byte]int{'x': 2, 'u': 4, 'U': 8}[s[i]]
			if i+digits >= len(s) {
				return "", fmt.Errorf("yamlite: line %d: truncated \\%c escape", lineNum, s[i])
			}
			n, err := strconv.ParseUint(s[i+1:i+1+digits], 16, 32)
			if err != nil {
				return "", fmt.Errorf("yamlite: line %d: bad \\%c escape: %v", lineNum, s[i], err)
			}
			if s[i] == 'x' {
				b.WriteByte(byte(n))
			} else {
				b.WriteRune(rune(n))
			}
			i += digits
		default:
			return "", fmt.Errorf("yamlite: line %d: unknown escape \\%c", lineNum, s[i])
		}
	}
	return b.String(), nil
}

// parseFlow parses a flow sequence or mapping ("[...]", "{...}").
func parseFlow(s string, lineNum int) (any, error) {
	v, rest, err := parseFlowValue(s, lineNum)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("yamlite: line %d: trailing content after flow collection", lineNum)
	}
	return v, nil
}

func parseFlowValue(s string, lineNum int) (any, string, error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", fmt.Errorf("yamlite: line %d: empty flow value", lineNum)
	}
	switch s[0] {
	case '[':
		return parseFlowSeq(s[1:], lineNum)
	case '{':
		return parseFlowMap(s[1:], lineNum)
	case '"', '\'':
		quote := s[0]
		for i := 1; i < len(s); i++ {
			if quote == '"' && s[i] == '\\' {
				i++ // the escape consumes the next byte
				continue
			}
			if s[i] == quote {
				v, err := parseScalar(s[:i+1], lineNum)
				return v, s[i+1:], err
			}
		}
		return nil, "", fmt.Errorf("yamlite: line %d: unterminated quoted string in flow", lineNum)
	default:
		end := strings.IndexAny(s, ",]}")
		if end == -1 {
			end = len(s)
		}
		v, err := parseScalar(strings.TrimSpace(s[:end]), lineNum)
		return v, s[end:], err
	}
}

func parseFlowSeq(s string, lineNum int) (any, string, error) {
	seq := []any{}
	s = strings.TrimLeft(s, " ")
	if strings.HasPrefix(s, "]") {
		return seq, s[1:], nil
	}
	for {
		v, rest, err := parseFlowValue(s, lineNum)
		if err != nil {
			return nil, "", err
		}
		seq = append(seq, v)
		rest = strings.TrimLeft(rest, " ")
		switch {
		case strings.HasPrefix(rest, ","):
			s = rest[1:]
		case strings.HasPrefix(rest, "]"):
			return seq, rest[1:], nil
		default:
			return nil, "", fmt.Errorf("yamlite: line %d: expected ',' or ']' in flow sequence", lineNum)
		}
	}
}

func parseFlowMap(s string, lineNum int) (any, string, error) {
	m := map[string]any{}
	s = strings.TrimLeft(s, " ")
	if strings.HasPrefix(s, "}") {
		return m, s[1:], nil
	}
	for {
		colon := strings.Index(s, ":")
		if colon == -1 {
			return nil, "", fmt.Errorf("yamlite: line %d: expected key in flow mapping", lineNum)
		}
		key, err := unquoteIfQuoted(strings.TrimSpace(s[:colon]), lineNum)
		if err != nil {
			return nil, "", err
		}
		v, rest, err := parseFlowValue(s[colon+1:], lineNum)
		if err != nil {
			return nil, "", err
		}
		m[key] = v
		rest = strings.TrimLeft(rest, " ")
		switch {
		case strings.HasPrefix(rest, ","):
			s = strings.TrimLeft(rest[1:], " ")
		case strings.HasPrefix(rest, "}"):
			return m, rest[1:], nil
		default:
			return nil, "", fmt.Errorf("yamlite: line %d: expected ',' or '}' in flow mapping", lineNum)
		}
	}
}

// Marshal renders a value tree back into yamlite syntax. It supports the
// same value types Parse produces and is primarily used for writing
// generated configs and in round-trip tests.
func Marshal(v any) []byte {
	var b strings.Builder
	marshalValue(&b, v, 0)
	return []byte(b.String())
}

func marshalValue(b *strings.Builder, v any, indent int) {
	switch t := v.(type) {
	case map[string]any:
		if len(t) == 0 {
			b.WriteString(strings.Repeat(" ", indent) + "{}\n")
			return
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(strings.Repeat(" ", indent))
			b.WriteString(quoteKeyIfNeeded(k))
			val := t[k]
			if isNested(val) {
				b.WriteString(":\n")
				marshalValue(b, val, indent+2)
			} else {
				b.WriteString(": ")
				b.WriteString(scalarString(val))
				b.WriteString("\n")
			}
		}
	case []any:
		if len(t) == 0 {
			b.WriteString(strings.Repeat(" ", indent) + "[]\n")
			return
		}
		for _, item := range t {
			if isNested(item) {
				b.WriteString(strings.Repeat(" ", indent) + "-\n")
				marshalValue(b, item, indent+2)
			} else {
				b.WriteString(strings.Repeat(" ", indent) + "- " + scalarString(item) + "\n")
			}
		}
	default:
		b.WriteString(strings.Repeat(" ", indent) + scalarString(v) + "\n")
	}
}

func isNested(v any) bool {
	switch t := v.(type) {
	case map[string]any:
		return len(t) > 0
	case []any:
		return len(t) > 0
	}
	return false
}

// quoteKeyIfNeeded quotes a key that would not read back as itself:
// one with syntax characters or outer spaces, or one starting "- ",
// which the parser takes for a sequence entry.
func quoteKeyIfNeeded(k string) string {
	if k == "" || strings.ContainsAny(k, ":#\"'\n\t[]{},") || k != strings.TrimSpace(k) || strings.HasPrefix(k, "- ") {
		return strconv.Quote(k)
	}
	return k
}

func scalarString(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		if t {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(t, 10)
	case int:
		return strconv.Itoa(t)
	case float64:
		s := strconv.FormatFloat(t, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the float/int distinction across round trips
		}
		return s
	case string:
		if needsQuoting(t) {
			return strconv.Quote(t)
		}
		return t
	case map[string]any:
		return "{}"
	case []any:
		return "[]"
	default:
		return fmt.Sprintf("%v", t)
	}
}

func needsQuoting(s string) bool {
	if s == "" || s == "~" || s == "null" || s == "true" || s == "false" {
		return true
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return true
	}
	if s != strings.TrimSpace(s) {
		return true
	}
	if strings.HasPrefix(s, "- ") || s == "-" {
		return true
	}
	switch s[0] {
	case '&', '*', '!', '|', '>', '[', '{', '"', '\'', '#', '@', '`':
		return true
	}
	return strings.ContainsAny(s, "\n\t") || strings.Contains(s, ": ") || strings.HasSuffix(s, ":") || strings.Contains(s, " #")
}
