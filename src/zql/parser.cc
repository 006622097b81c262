#include "zql/parser.h"

#include <cctype>
#include <cstdlib>

#include "common/strings.h"

namespace zv::zql {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdent(std::string_view s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (!IsIdentChar(c)) return false;
  }
  return true;
}

/// Parses a literal token: 'quoted' -> string, bare number -> int/double,
/// bare ident -> string (the paper writes {USA, Canada} unquoted).
Result<Value> ParseValueToken(std::string_view raw) {
  std::string s = Trim(raw);
  if (s.empty()) return Status::ParseError("empty value");
  if (s.front() == '\'' ) {
    if (s.size() < 2 || s.back() != '\'') {
      return Status::ParseError("unterminated quoted value: " + s);
    }
    return Value::Str(s.substr(1, s.size() - 2));
  }
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end == s.c_str() + s.size() && end != s.c_str()) {
    if (s.find('.') == std::string::npos &&
        s.find('e') == std::string::npos &&
        s.find('E') == std::string::npos && FitsInt64(d)) {
      return Value::Int(static_cast<int64_t>(d));
    }
    return Value::Double(d);
  }
  if (IsIdent(s)) return Value::Str(s);
  return Status::ParseError("bad value token: " + s);
}

/// Parses a quoted attribute name, or a bare identifier.
Result<std::string> ParseAttrToken(std::string_view raw) {
  std::string s = Trim(raw);
  if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
    return s.substr(1, s.size() - 2);
  }
  if (IsIdent(s)) return s;
  return Status::ParseError("bad attribute token: " + s);
}

/// Strips one level of balanced outer parentheses (repeatedly).
std::string StripParens(std::string s) {
  while (true) {
    s = Trim(s);
    if (s.size() < 2 || s.front() != '(' || s.back() != ')') return s;
    // Ensure the closing paren matches the opening one.
    int depth = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '(') ++depth;
      else if (s[i] == ')') {
        --depth;
        if (depth == 0 && i + 1 != s.size()) return s;
      }
    }
    s = s.substr(1, s.size() - 2);
  }
}

/// Finds the position of "<-" at paren/quote depth 0, or npos.
size_t FindArrow(std::string_view s) {
  int depth = 0;
  bool quote = false;
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    const char c = s[i];
    if (quote) {
      if (c == '\'') quote = false;
      continue;
    }
    if (c == '\'') quote = true;
    else if (c == '(' || c == '{' || c == '[') ++depth;
    else if (c == ')' || c == '}' || c == ']') --depth;
    else if (depth == 0 && c == '<' && s[i + 1] == '-') return i;
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Axis entries
// ---------------------------------------------------------------------------

Result<AxisValue> ParseAxisValue(const std::string& raw) {
  std::string s = Trim(raw);
  AxisValue out;
  // Split on '+' or '*' at top level.
  char compose = 0;
  int depth = 0;
  bool quote = false;
  size_t start = 0;
  std::vector<std::string> parts;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote) {
      if (c == '\'') quote = false;
      continue;
    }
    if (c == '\'') quote = true;
    else if (c == '(' || c == '{') ++depth;
    else if (c == ')' || c == '}') --depth;
    else if (depth == 0 && (c == '+' || c == '*')) {
      if (compose != 0 && compose != c) {
        return Status::ParseError("mixed +/* axis composition: " + s);
      }
      compose = c;
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  parts.push_back(s.substr(start));
  for (const std::string& p : parts) {
    ZV_ASSIGN_OR_RETURN(std::string attr, ParseAttrToken(p));
    out.attrs.push_back(std::move(attr));
  }
  out.compose = compose == '+'   ? AxisValue::Compose::kPlus
                : compose == '*' ? AxisValue::Compose::kCross
                                 : AxisValue::Compose::kNone;
  return out;
}

}  // namespace

std::string AxisValue::Label() const {
  const char* sep = compose == Compose::kPlus ? "+" : "*";
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) out += sep;
    out += attrs[i];
  }
  return out;
}

Result<AxisEntry> ParseAxisEntry(const std::string& text) {
  AxisEntry entry;
  std::string s = Trim(text);
  if (s.empty() || s == "-") {
    entry.kind = AxisEntry::Kind::kNone;
    return entry;
  }
  // Ordering key: "u1 ->".
  if (EndsWith(s, "->")) {
    entry.kind = AxisEntry::Kind::kOrderBy;
    entry.var = Trim(s.substr(0, s.size() - 2));
    if (!IsIdent(entry.var)) {
      return Status::ParseError("bad ordering variable: " + s);
    }
    return entry;
  }
  const size_t arrow = FindArrow(s);
  if (arrow != std::string::npos) {
    entry.var = Trim(s.substr(0, arrow));
    if (!IsIdent(entry.var)) {
      return Status::ParseError("bad axis variable name: " + entry.var);
    }
    std::string rhs = Trim(s.substr(arrow + 2));
    if (rhs == "_") {
      entry.kind = AxisEntry::Kind::kDerived;
      return entry;
    }
    entry.kind = AxisEntry::Kind::kDeclare;
    rhs = StripParens(rhs);
    if (rhs.size() >= 2 && rhs.front() == '{' && rhs.back() == '}') {
      for (const std::string& item :
           SplitTopLevel(rhs.substr(1, rhs.size() - 2), ',')) {
        ZV_ASSIGN_OR_RETURN(AxisValue v, ParseAxisValue(item));
        entry.set.push_back(std::move(v));
      }
      return entry;
    }
    if (IsIdent(rhs)) {
      entry.named_set = rhs;
      return entry;
    }
    return Status::ParseError("bad axis set: " + rhs);
  }
  // Composite with embedded declaration: 'product' * (x1 <- {...}).
  {
    int depth = 0;
    bool quote = false;
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (quote) {
        if (c == '\'') quote = false;
        continue;
      }
      if (c == '\'') quote = true;
      else if (c == '(') ++depth;
      else if (c == ')') --depth;
      else if (depth == 0 && (c == '*' || c == '+')) {
        std::string lhs = Trim(s.substr(0, i));
        std::string rhs = Trim(s.substr(i + 1));
        if (StartsWith(rhs, "(") && FindArrow(StripParens(rhs)) !=
                                         std::string_view::npos) {
          ZV_ASSIGN_OR_RETURN(std::string base, ParseAttrToken(lhs));
          const std::string inner = StripParens(rhs);
          const size_t a = FindArrow(inner);
          entry.kind = AxisEntry::Kind::kDeclare;
          entry.var = Trim(inner.substr(0, a));
          // Accept "x1 <- {...}" and "x1 in {...}" styles.
          std::string set_text = StripParens(Trim(inner.substr(a + 2)));
          if (set_text.size() < 2 || set_text.front() != '{' ||
              set_text.back() != '}') {
            return Status::ParseError("bad composite axis set: " + set_text);
          }
          for (const std::string& item : SplitTopLevel(
                   set_text.substr(1, set_text.size() - 2), ',')) {
            ZV_ASSIGN_OR_RETURN(std::string attr, ParseAttrToken(item));
            AxisValue v;
            v.attrs = {base, attr};
            v.compose = c == '*' ? AxisValue::Compose::kCross
                                 : AxisValue::Compose::kPlus;
            entry.set.push_back(std::move(v));
          }
          return entry;
        }
        break;
      }
    }
  }
  if (IsIdent(s)) {
    entry.kind = AxisEntry::Kind::kReuse;
    entry.var = s;
    return entry;
  }
  entry.kind = AxisEntry::Kind::kLiteral;
  ZV_ASSIGN_OR_RETURN(entry.literal, ParseAxisValue(s));
  return entry;
}

// ---------------------------------------------------------------------------
// Z entries
// ---------------------------------------------------------------------------

namespace {

Result<AttrSpec> ParseAttrSpec(const std::string& raw) {
  AttrSpec spec;
  std::string s = Trim(raw);
  if (s == "*") {
    spec.kind = AttrSpec::Kind::kAll;
    return spec;
  }
  s = StripParens(s);
  if (s == "*") {
    spec.kind = AttrSpec::Kind::kAll;
    return spec;
  }
  // (* \ {..}) or (* - {..})
  if (StartsWith(s, "*")) {
    std::string rest = Trim(s.substr(1));
    if (rest.empty()) {
      spec.kind = AttrSpec::Kind::kAll;
      return spec;
    }
    if (rest[0] != '\\' && rest[0] != '-') {
      return Status::ParseError("bad attribute spec: " + raw);
    }
    rest = StripParens(Trim(rest.substr(1)));
    spec.kind = AttrSpec::Kind::kAllExcept;
    if (rest.size() >= 2 && rest.front() == '{' && rest.back() == '}') {
      rest = rest.substr(1, rest.size() - 2);
    }
    for (const std::string& item : SplitTopLevel(rest, ',')) {
      ZV_ASSIGN_OR_RETURN(std::string attr, ParseAttrToken(item));
      spec.names.push_back(std::move(attr));
    }
    return spec;
  }
  if (s.size() >= 2 && s.front() == '{' && s.back() == '}') {
    spec.kind = AttrSpec::Kind::kList;
    for (const std::string& item :
         SplitTopLevel(s.substr(1, s.size() - 2), ',')) {
      ZV_ASSIGN_OR_RETURN(std::string attr, ParseAttrToken(item));
      spec.names.push_back(std::move(attr));
    }
    return spec;
  }
  spec.kind = AttrSpec::Kind::kLiteral;
  ZV_ASSIGN_OR_RETURN(std::string attr, ParseAttrToken(s));
  spec.names.push_back(std::move(attr));
  return spec;
}

Result<ValueSpec> ParseValueSpec(const std::string& raw) {
  ValueSpec spec;
  std::string s = Trim(raw);
  if (s == "_") {
    spec.kind = ValueSpec::Kind::kDerived;
    return spec;
  }
  if (s == "*") {
    spec.kind = ValueSpec::Kind::kAll;
    return spec;
  }
  s = StripParens(s);
  if (s == "*") {
    spec.kind = ValueSpec::Kind::kAll;
    return spec;
  }
  if (StartsWith(s, "*")) {
    std::string rest = Trim(s.substr(1));
    if (rest.empty()) {
      spec.kind = ValueSpec::Kind::kAll;
      return spec;
    }
    if (rest[0] != '\\' && rest[0] != '-') {
      return Status::ParseError("bad value spec: " + raw);
    }
    rest = StripParens(Trim(rest.substr(1)));
    spec.kind = ValueSpec::Kind::kAllExcept;
    if (rest.size() >= 2 && rest.front() == '{' && rest.back() == '}') {
      rest = rest.substr(1, rest.size() - 2);
    }
    for (const std::string& item : SplitTopLevel(rest, ',')) {
      ZV_ASSIGN_OR_RETURN(Value v, ParseValueToken(item));
      spec.values.push_back(std::move(v));
    }
    return spec;
  }
  if (s.size() >= 2 && s.front() == '{' && s.back() == '}') {
    spec.kind = ValueSpec::Kind::kList;
    for (const std::string& item :
         SplitTopLevel(s.substr(1, s.size() - 2), ',')) {
      ZV_ASSIGN_OR_RETURN(Value v, ParseValueToken(item));
      spec.values.push_back(std::move(v));
    }
    return spec;
  }
  spec.kind = ValueSpec::Kind::kLiteral;
  ZV_ASSIGN_OR_RETURN(Value v, ParseValueToken(s));
  spec.values.push_back(std::move(v));
  return spec;
}

/// Splits "attrpart.valuepart" at the top-level '.' separating the two —
/// the last depth-0 '.' that is not inside quotes and not part of ".range".
size_t FindAttrValueDot(std::string_view s) {
  int depth = 0;
  bool quote = false;
  size_t best = std::string_view::npos;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote) {
      if (c == '\'') quote = false;
      continue;
    }
    if (c == '\'') quote = true;
    else if (c == '(' || c == '{') ++depth;
    else if (c == ')' || c == '}') --depth;
    else if (depth == 0 && c == '.') best = i;
  }
  return best;
}

Result<std::unique_ptr<ZSetExpr>> ParseZSetExpr(const std::string& raw);

Result<std::unique_ptr<ZSetExpr>> ParseZSetTerm(const std::string& raw) {
  std::string s = Trim(raw);
  // Parenthesized subexpression: recurse only if stripping makes progress —
  // '(...)..' shapes like "(* \ {..}).*" are attr/value specs, not nested
  // set expressions.
  if (!s.empty() && s.front() == '(') {
    const std::string stripped = StripParens(s);
    if (stripped != s) return ParseZSetExpr(stripped);
  }
  if (EndsWith(s, ".range")) {
    std::string var = Trim(s.substr(0, s.size() - 6));
    if (!IsIdent(var)) return Status::ParseError("bad .range variable: " + s);
    auto e = std::make_unique<ZSetExpr>();
    e->kind = ZSetExpr::Kind::kVarRange;
    e->var = std::move(var);
    return e;
  }
  const size_t dot = FindAttrValueDot(s);
  if (dot == std::string_view::npos) {
    // Bare identifier: a registered named value set (e.g. P, OA).
    if (IsIdent(s)) {
      auto e = std::make_unique<ZSetExpr>();
      e->kind = ZSetExpr::Kind::kNamedSet;
      e->var = s;
      return e;
    }
    return Status::ParseError("bad Z set term: " + s);
  }
  auto e = std::make_unique<ZSetExpr>();
  e->kind = ZSetExpr::Kind::kAttrDotValue;
  ZV_ASSIGN_OR_RETURN(e->attr, ParseAttrSpec(s.substr(0, dot)));
  ZV_ASSIGN_OR_RETURN(e->value, ParseValueSpec(s.substr(dot + 1)));
  return e;
}

Result<std::unique_ptr<ZSetExpr>> ParseZSetExpr(const std::string& raw) {
  std::string s = Trim(raw);
  // Split at top-level set operators | & \ (left-associative).
  int depth = 0;
  bool quote = false;
  std::vector<std::string> terms;
  std::vector<char> ops;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote) {
      if (c == '\'') quote = false;
      continue;
    }
    if (c == '\'') quote = true;
    else if (c == '(' || c == '{') ++depth;
    else if (c == ')' || c == '}') --depth;
    else if (depth == 0 && (c == '|' || c == '&' || c == '\\')) {
      terms.push_back(s.substr(start, i - start));
      ops.push_back(c);
      start = i + 1;
    }
  }
  terms.push_back(s.substr(start));
  ZV_ASSIGN_OR_RETURN(auto acc, ParseZSetTerm(terms[0]));
  for (size_t i = 0; i < ops.size(); ++i) {
    ZV_ASSIGN_OR_RETURN(auto rhs, ParseZSetTerm(terms[i + 1]));
    auto node = std::make_unique<ZSetExpr>();
    node->kind = ZSetExpr::Kind::kOp;
    node->op = ops[i];
    node->lhs = std::move(acc);
    node->rhs = std::move(rhs);
    acc = std::move(node);
  }
  return acc;
}

}  // namespace

Result<ZEntry> ParseZEntry(const std::string& text) {
  ZEntry entry;
  std::string s = Trim(text);
  if (s.empty() || s == "-") {
    entry.kind = ZEntry::Kind::kNone;
    return entry;
  }
  if (EndsWith(s, "->")) {
    entry.kind = ZEntry::Kind::kOrderBy;
    entry.vars = {Trim(s.substr(0, s.size() - 2))};
    if (!IsIdent(entry.vars[0])) {
      return Status::ParseError("bad ordering variable: " + s);
    }
    return entry;
  }
  const size_t arrow = FindArrow(s);
  if (arrow != std::string_view::npos) {
    // lhs: v1 or z1.v1
    for (const std::string& part :
         Split(Trim(s.substr(0, arrow)), '.')) {
      const std::string name = Trim(part);
      if (!IsIdent(name)) {
        return Status::ParseError("bad Z variable: " + name);
      }
      entry.vars.push_back(name);
    }
    if (entry.vars.empty() || entry.vars.size() > 2) {
      return Status::ParseError("Z declares 1 or 2 variables: " + s);
    }
    std::string rhs = Trim(s.substr(arrow + 2));
    // Derived binding: 'product'._  or  _ (bind to derived component).
    if (rhs == "_") {
      entry.kind = ZEntry::Kind::kDerived;
      return entry;
    }
    if (EndsWith(rhs, "._")) {
      ZV_ASSIGN_OR_RETURN(entry.derived_attr,
                          ParseAttrToken(rhs.substr(0, rhs.size() - 2)));
      entry.kind = ZEntry::Kind::kDerived;
      return entry;
    }
    entry.kind = ZEntry::Kind::kDeclare;
    ZV_ASSIGN_OR_RETURN(auto set, ParseZSetExpr(rhs));
    entry.set = std::shared_ptr<ZSetExpr>(std::move(set));
    return entry;
  }
  if (IsIdent(s)) {
    entry.kind = ZEntry::Kind::kReuse;
    entry.vars = {s};
    return entry;
  }
  // Literal 'product'.'chair'.
  const size_t dot = FindAttrValueDot(s);
  if (dot == std::string_view::npos) {
    return Status::ParseError("bad Z entry: " + s);
  }
  entry.kind = ZEntry::Kind::kLiteral;
  ZV_ASSIGN_OR_RETURN(entry.literal.attr, ParseAttrToken(s.substr(0, dot)));
  ZV_ASSIGN_OR_RETURN(entry.literal.value, ParseValueToken(s.substr(dot + 1)));
  return entry;
}

// ---------------------------------------------------------------------------
// Viz entries
// ---------------------------------------------------------------------------

Result<VizEntry> ParseVizEntry(const std::string& text) {
  VizEntry entry;
  std::string s = Trim(text);
  if (s.empty() || s == "-") {
    entry.kind = VizEntry::Kind::kNone;
    return entry;
  }
  const size_t arrow = FindArrow(s);
  if (arrow == std::string_view::npos) {
    if (IsIdent(s) && !ChartTypeFromString(s).ok()) {
      entry.kind = VizEntry::Kind::kReuse;
      entry.var = s;
      return entry;
    }
    entry.kind = VizEntry::Kind::kLiteral;
    ZV_ASSIGN_OR_RETURN(entry.literal, ParseVizSpec(s));
    return entry;
  }
  entry.kind = VizEntry::Kind::kDeclare;
  entry.var = Trim(s.substr(0, arrow));
  if (!IsIdent(entry.var)) {
    return Status::ParseError("bad viz variable: " + entry.var);
  }
  std::string rhs = Trim(s.substr(arrow + 2));
  // Form 1: {bar, dotplot}.(summ)
  if (!rhs.empty() && rhs.front() == '{') {
    const size_t close = rhs.find('}');
    if (close == std::string::npos) {
      return Status::ParseError("bad viz set: " + rhs);
    }
    std::string types = rhs.substr(1, close - 1);
    std::string summ = Trim(rhs.substr(close + 1));
    if (StartsWith(summ, ".")) summ = Trim(summ.substr(1));
    for (const std::string& t : SplitTopLevel(types, ',')) {
      ZV_ASSIGN_OR_RETURN(VizSpec spec,
                          ParseVizSpec(Trim(t) + (summ.empty() ? "" : "." + summ)));
      entry.set.push_back(spec);
    }
    return entry;
  }
  // Form 2: bar.{(summ1), (summ2)}
  const size_t brace = rhs.find(".{");
  if (brace != std::string::npos && EndsWith(rhs, "}")) {
    const std::string type = Trim(rhs.substr(0, brace));
    const std::string body = rhs.substr(brace + 2, rhs.size() - brace - 3);
    for (const std::string& summ : SplitTopLevel(body, ',')) {
      ZV_ASSIGN_OR_RETURN(VizSpec spec, ParseVizSpec(type + "." + Trim(summ)));
      entry.set.push_back(spec);
    }
    return entry;
  }
  // Fallback: single-element set.
  ZV_ASSIGN_OR_RETURN(VizSpec spec, ParseVizSpec(rhs));
  entry.set.push_back(spec);
  return entry;
}

// ---------------------------------------------------------------------------
// Name entries
// ---------------------------------------------------------------------------

Result<NameEntry> ParseNameEntry(const std::string& text) {
  NameEntry entry;
  std::string s = Trim(text);
  if (s.empty()) return Status::ParseError("Name column cannot be empty");
  if (s[0] == '*') {
    entry.output = true;
    s = Trim(s.substr(1));
  } else if (s[0] == '-') {
    entry.user_input = true;
    s = Trim(s.substr(1));
  }
  const size_t eq = s.find('=');
  if (eq == std::string::npos) {
    if (!IsIdent(s)) return Status::ParseError("bad component name: " + s);
    entry.name = s;
    return entry;
  }
  entry.name = Trim(s.substr(0, eq));
  if (!IsIdent(entry.name)) {
    return Status::ParseError("bad component name: " + entry.name);
  }
  std::string rhs = Trim(s.substr(eq + 1));
  // f1.range / f1.order
  if (EndsWith(rhs, ".range") || EndsWith(rhs, ".order")) {
    entry.derive = EndsWith(rhs, ".range") ? NameEntry::Derive::kRange
                                           : NameEntry::Derive::kOrder;
    entry.source_a = Trim(rhs.substr(0, rhs.size() - 6));
    if (!IsIdent(entry.source_a)) {
      return Status::ParseError("bad derivation source: " + rhs);
    }
    return entry;
  }
  // f1[i] / f1[i:j]
  if (EndsWith(rhs, "]")) {
    const size_t open = rhs.find('[');
    if (open == std::string::npos) {
      return Status::ParseError("bad index derivation: " + rhs);
    }
    entry.source_a = Trim(rhs.substr(0, open));
    if (!IsIdent(entry.source_a)) {
      return Status::ParseError("bad derivation source: " + rhs);
    }
    std::string body = rhs.substr(open + 1, rhs.size() - open - 2);
    const size_t colon = body.find(':');
    if (colon == std::string::npos) {
      entry.derive = NameEntry::Derive::kIndex;
      entry.index_a = std::strtoll(Trim(body).c_str(), nullptr, 10);
    } else {
      entry.derive = NameEntry::Derive::kSlice;
      entry.index_a = std::strtoll(Trim(body.substr(0, colon)).c_str(),
                                   nullptr, 10);
      entry.index_b = std::strtoll(Trim(body.substr(colon + 1)).c_str(),
                                   nullptr, 10);
    }
    return entry;
  }
  // f1+f2 / f1-f2 / f1^f2
  for (char op : {'+', '-', '^'}) {
    const size_t pos = rhs.find(op);
    if (pos == std::string::npos) continue;
    entry.derive = op == '+'   ? NameEntry::Derive::kPlus
                   : op == '-' ? NameEntry::Derive::kMinus
                               : NameEntry::Derive::kIntersect;
    entry.source_a = Trim(rhs.substr(0, pos));
    entry.source_b = Trim(rhs.substr(pos + 1));
    if (!IsIdent(entry.source_a) || !IsIdent(entry.source_b)) {
      return Status::ParseError("bad derivation operands: " + rhs);
    }
    return entry;
  }
  return Status::ParseError("bad name derivation: " + rhs);
}

// ---------------------------------------------------------------------------
// Process entries
// ---------------------------------------------------------------------------

namespace {

Result<std::vector<std::string>> ParseVarList(const std::string& raw) {
  std::vector<std::string> out;
  for (const std::string& part : SplitTopLevel(StripParens(raw), ',')) {
    const std::string v = Trim(part);
    if (!IsIdent(v)) return Status::ParseError("bad variable name: " + v);
    out.push_back(v);
  }
  return out;
}

/// Parses "mech_v1,v2" prefix: returns vars consumed and advances *pos past
/// them.
Result<std::vector<std::string>> ParseSubscriptVars(const std::string& s,
                                                    size_t* pos) {
  std::vector<std::string> vars;
  size_t i = *pos;
  // Skip the '_' or read parenthesized list.
  while (i < s.size() && s[i] == ' ') ++i;
  if (i < s.size() && s[i] == '(') {
    int depth = 0;
    size_t start = i;
    for (; i < s.size(); ++i) {
      if (s[i] == '(') ++depth;
      else if (s[i] == ')') {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
    }
    ZV_ASSIGN_OR_RETURN(vars, ParseVarList(s.substr(start, i - start)));
    *pos = i;
    return vars;
  }
  if (i < s.size() && s[i] == '_') ++i;
  // Read comma-separated identifiers.
  while (true) {
    while (i < s.size() && s[i] == ' ') ++i;
    size_t start = i;
    while (i < s.size() && IsIdentChar(s[i])) ++i;
    if (i == start) break;
    vars.push_back(s.substr(start, i - start));
    size_t j = i;
    while (j < s.size() && s[j] == ' ') ++j;
    if (j < s.size() && s[j] == ',') {
      i = j + 1;
      continue;
    }
    break;
  }
  *pos = i;
  if (vars.empty()) return Status::ParseError("expected iteration variables");
  return vars;
}

Result<MechanismFilter> ParseFilter(const std::string& body) {
  MechanismFilter filter;
  std::string s = Trim(body);
  if (s.empty()) return filter;
  if (s[0] == 'k') {
    const size_t eq = s.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("bad k filter: " + body);
    }
    const std::string v = ToLower(Trim(s.substr(eq + 1)));
    if (v == "inf" || v == "infinity" || v == "all") {
      // k = ∞: sort everything; leave k unset.
      return filter;
    }
    filter.k = std::strtoll(v.c_str(), nullptr, 10);
    if (*filter.k <= 0) return Status::ParseError("bad k value: " + body);
    return filter;
  }
  if (s[0] == 't') {
    size_t i = 1;
    while (i < s.size() && s[i] == ' ') ++i;
    if (i >= s.size() || (s[i] != '>' && s[i] != '<')) {
      return Status::ParseError("bad t filter: " + body);
    }
    const char op = s[i];
    const double v = std::strtod(s.substr(i + 1).c_str(), nullptr);
    if (op == '>') filter.t_above = v;
    else filter.t_below = v;
    return filter;
  }
  return Status::ParseError("bad filter: " + body);
}

Result<std::unique_ptr<ProcessExpr>> ParseProcessExpr(const std::string& raw) {
  std::string s = Trim(raw);
  if (s.empty()) return Status::ParseError("empty process expression");
  // Inner reducer?
  for (const auto& [kw, kind] :
       {std::pair<const char*, ProcessExpr::Reduce>{"min",
                                                    ProcessExpr::Reduce::kMin},
        {"max", ProcessExpr::Reduce::kMax},
        {"sum", ProcessExpr::Reduce::kSum}}) {
    const size_t len = std::string(kw).size();
    if (StartsWith(s, kw) && s.size() > len &&
        (s[len] == '_' || s[len] == '(')) {
      // Distinguish reducer min_v from a call min(...)? Reducers always use
      // '_'; calls named min/max/sum are not supported.
      if (s[len] == '_') {
        auto e = std::make_unique<ProcessExpr>();
        e->kind = ProcessExpr::Kind::kReduce;
        e->reduce = kind;
        size_t pos = len;
        ZV_ASSIGN_OR_RETURN(e->reduce_vars, ParseSubscriptVars(s, &pos));
        ZV_ASSIGN_OR_RETURN(e->child, ParseProcessExpr(s.substr(pos)));
        return e;
      }
    }
  }
  // Function call: NAME(args).
  const size_t open = s.find('(');
  if (open == std::string::npos || !EndsWith(s, ")")) {
    return Status::ParseError("bad process expression: " + s);
  }
  auto e = std::make_unique<ProcessExpr>();
  e->kind = ProcessExpr::Kind::kCall;
  e->func = Trim(s.substr(0, open));
  if (!IsIdent(e->func)) {
    return Status::ParseError("bad process function name: " + e->func);
  }
  const std::string body = s.substr(open + 1, s.size() - open - 2);
  for (const std::string& arg : SplitTopLevel(body, ',')) {
    const std::string a = Trim(arg);
    if (!IsIdent(a)) return Status::ParseError("bad process argument: " + a);
    e->args.push_back(a);
  }
  return e;
}

Result<ProcessDecl> ParseProcessDecl(const std::string& raw) {
  ProcessDecl decl;
  std::string s = StripParens(Trim(raw));
  // outvars <- rhs   (also accepts "outvars IN rhs", Table 7.1 style)
  size_t arrow = FindArrow(s);
  size_t rhs_start;
  if (arrow != std::string_view::npos) {
    rhs_start = arrow + 2;
  } else {
    const size_t in_pos = s.find(" IN ");
    if (in_pos == std::string::npos) {
      return Status::ParseError("process must bind outputs with '<-': " + s);
    }
    arrow = in_pos;
    rhs_start = in_pos + 4;
  }
  ZV_ASSIGN_OR_RETURN(decl.outputs, ParseVarList(s.substr(0, arrow)));
  std::string rhs = Trim(s.substr(rhs_start));

  // R(k, v..., f)
  if ((StartsWith(rhs, "R(") || StartsWith(rhs, "R ("))) {
    decl.kind = ProcessDecl::Kind::kRepresentative;
    const size_t open = rhs.find('(');
    if (!EndsWith(rhs, ")")) return Status::ParseError("bad R call: " + rhs);
    const std::string body = rhs.substr(open + 1, rhs.size() - open - 2);
    std::vector<std::string> parts = SplitTopLevel(body, ',');
    if (parts.size() < 3) {
      return Status::ParseError("R takes (k, vars..., component): " + rhs);
    }
    decl.repr_k = std::strtoll(Trim(parts[0]).c_str(), nullptr, 10);
    if (decl.repr_k <= 0) return Status::ParseError("bad R k: " + rhs);
    decl.repr_component = Trim(parts.back());
    for (size_t i = 1; i + 1 < parts.size(); ++i) {
      ZV_ASSIGN_OR_RETURN(auto vars, ParseVarList(parts[i]));
      for (auto& v : vars) decl.repr_vars.push_back(std::move(v));
    }
    return decl;
  }

  // Mechanism.
  decl.kind = ProcessDecl::Kind::kMechanism;
  size_t pos = 0;
  if (StartsWith(rhs, "argmin")) {
    decl.mech = Mechanism::kArgMin;
    pos = 6;
  } else if (StartsWith(rhs, "argmax")) {
    decl.mech = Mechanism::kArgMax;
    pos = 6;
  } else if (StartsWith(rhs, "argany")) {
    decl.mech = Mechanism::kArgAny;
    pos = 6;
  } else {
    return Status::ParseError("unknown process mechanism: " + rhs);
  }
  ZV_ASSIGN_OR_RETURN(decl.iter_vars, ParseSubscriptVars(rhs, &pos));
  // Optional [filter].
  while (pos < rhs.size() && rhs[pos] == ' ') ++pos;
  if (pos < rhs.size() && rhs[pos] == '[') {
    const size_t close = rhs.find(']', pos);
    if (close == std::string::npos) {
      return Status::ParseError("unterminated filter: " + rhs);
    }
    ZV_ASSIGN_OR_RETURN(decl.filter,
                        ParseFilter(rhs.substr(pos + 1, close - pos - 1)));
    pos = close + 1;
  }
  ZV_ASSIGN_OR_RETURN(auto expr, ParseProcessExpr(rhs.substr(pos)));
  decl.expr = std::shared_ptr<ProcessExpr>(std::move(expr));
  if (decl.outputs.size() != decl.iter_vars.size()) {
    return Status::ParseError(StrFormat(
        "process declares %zu outputs for %zu iteration variables",
        decl.outputs.size(), decl.iter_vars.size()));
  }
  return decl;
}

}  // namespace

Result<std::vector<ProcessDecl>> ParseProcessCell(const std::string& text) {
  std::vector<ProcessDecl> out;
  const std::string s = Trim(text);
  if (s.empty() || s == "-") return out;
  // Top-level commas separate processes (Table 3.21), but they also appear
  // inside output-variable lists and mechanism subscripts ("x2, y2 <-
  // argmax_x1,y1[...] ..."), so accumulate fragments until a complete
  // declaration parses.
  std::vector<std::string> fragments = SplitTopLevel(s, ',');
  std::string pending;
  Status last_error = Status::OK();
  for (const std::string& frag : fragments) {
    const std::string piece = pending.empty() ? frag : pending + "," + frag;
    const std::string stripped = StripParens(Trim(piece));
    if (FindArrow(stripped) != std::string_view::npos ||
        stripped.find(" IN ") != std::string::npos) {
      Result<ProcessDecl> decl = ParseProcessDecl(piece);
      if (decl.ok()) {
        out.push_back(std::move(decl).value());
        pending.clear();
        last_error = Status::OK();
        continue;
      }
      last_error = decl.status();
    }
    pending = piece;
  }
  if (!pending.empty()) {
    if (!last_error.ok()) return last_error;
    return Status::ParseError("dangling process fragment: " + pending);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Full query
// ---------------------------------------------------------------------------

namespace {

enum class ColumnRole { kName, kX, kY, kZ, kZ2, kZ3, kConstraints, kViz,
                        kProcess };

std::optional<ColumnRole> RoleFromHeader(const std::string& cell) {
  const std::string s = ToLower(Trim(cell));
  if (s == "name") return ColumnRole::kName;
  if (s == "x") return ColumnRole::kX;
  if (s == "y") return ColumnRole::kY;
  if (s == "z" || s == "z1") return ColumnRole::kZ;
  // Any number of additional Z columns: z2, z3, ... (all handled alike).
  if (s.size() >= 2 && s[0] == 'z' &&
      s.find_first_not_of("0123456789", 1) == std::string::npos) {
    return ColumnRole::kZ2;
  }
  if (s == "constraints") return ColumnRole::kConstraints;
  if (s == "viz") return ColumnRole::kViz;
  if (s == "process") return ColumnRole::kProcess;
  return std::nullopt;
}

/// Wraps a cell parser's flat error with its source position and offending
/// token: "line L, column C near 'tok': message". Cell parser messages end
/// with ": <offending text>" by convention; when that text can be located
/// inside the cell, the column points at it exactly, otherwise at the
/// cell's first non-blank character.
Status CellError(const Status& inner, int line_no, size_t line_indent,
                 const std::string& cell, size_t cell_offset,
                 ParseDiagnostic* diag) {
  const std::string& msg = inner.message();
  std::string token;
  const size_t colon = msg.rfind(": ");
  if (colon != std::string::npos) token = Trim(msg.substr(colon + 2));
  if (token.empty()) token = Trim(cell);
  size_t col = cell_offset;
  size_t lead = 0;
  while (lead < cell.size() && (cell[lead] == ' ' || cell[lead] == '\t')) {
    ++lead;
  }
  col += lead;
  if (!token.empty()) {
    const size_t at = cell.find(token);
    if (at != std::string::npos) col = cell_offset + at;
  }
  const int column = static_cast<int>(line_indent + col) + 1;  // 1-based
  if (diag != nullptr) {
    diag->line = line_no;
    diag->column = column;
    diag->token = token;
    diag->message = msg;
  }
  return Status::ParseError(StrFormat("line %d, column %d near '%s': %s",
                                      line_no, column, token.c_str(),
                                      msg.c_str()));
}

/// Query-level error (no specific cell): position is the start of the line.
Status RowError(std::string message, int line_no, ParseDiagnostic* diag) {
  if (diag != nullptr) {
    diag->line = line_no;
    diag->column = 1;
    diag->token.clear();
    diag->message = message;
  }
  if (line_no > 0) {
    return Status::ParseError(
        StrFormat("line %d: %s", line_no, message.c_str()));
  }
  return Status::ParseError(std::move(message));
}

}  // namespace

Result<ZqlQuery> ParseQuery(const std::string& text, ParseDiagnostic* diag) {
  ZqlQuery query;
  std::vector<ColumnRole> layout = {
      ColumnRole::kName, ColumnRole::kX,   ColumnRole::kY,
      ColumnRole::kZ,    ColumnRole::kConstraints, ColumnRole::kViz,
      ColumnRole::kProcess};

  int line_no = 0;
  bool saw_row = false;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    const std::string line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const size_t line_indent = raw_line.find_first_not_of(" \t\r");
    std::vector<std::pair<std::string, size_t>> cells =
        SplitTopLevelWithOffsets(line, '|');

    // Header detection: every cell names a column role.
    if (!saw_row) {
      std::vector<ColumnRole> maybe;
      bool all_roles = true;
      for (const auto& [cell, offset] : cells) {
        auto role = RoleFromHeader(cell);
        if (!role.has_value()) {
          all_roles = false;
          break;
        }
        maybe.push_back(*role);
      }
      if (all_roles && maybe.size() >= 2) {
        layout = std::move(maybe);
        continue;
      }
    }
    saw_row = true;

    ZqlRow row;
    row.line = line_no;
    for (size_t i = 0; i < cells.size() && i < layout.size(); ++i) {
      const std::string& cell = cells[i].first;
      const size_t offset = cells[i].second;
      auto cell_error = [&](const Status& inner) {
        return CellError(inner, line_no, line_indent, cell, offset, diag);
      };
      switch (layout[i]) {
        case ColumnRole::kName: {
          Result<NameEntry> r = ParseNameEntry(cell);
          if (!r.ok()) return cell_error(r.status());
          row.name = std::move(r).value();
          break;
        }
        case ColumnRole::kX: {
          Result<AxisEntry> r = ParseAxisEntry(cell);
          if (!r.ok()) return cell_error(r.status());
          row.x = std::move(r).value();
          break;
        }
        case ColumnRole::kY: {
          Result<AxisEntry> r = ParseAxisEntry(cell);
          if (!r.ok()) return cell_error(r.status());
          row.y = std::move(r).value();
          break;
        }
        case ColumnRole::kZ:
        case ColumnRole::kZ2:
        case ColumnRole::kZ3: {
          Result<ZEntry> r = ParseZEntry(cell);
          if (!r.ok()) return cell_error(r.status());
          row.zs.push_back(std::move(r).value());
          break;
        }
        case ColumnRole::kConstraints:
          row.constraints = Trim(cell);
          break;
        case ColumnRole::kViz: {
          Result<VizEntry> r = ParseVizEntry(cell);
          if (!r.ok()) return cell_error(r.status());
          row.viz = std::move(r).value();
          break;
        }
        case ColumnRole::kProcess: {
          Result<std::vector<ProcessDecl>> r = ParseProcessCell(cell);
          if (!r.ok()) return cell_error(r.status());
          row.processes = std::move(r).value();
          break;
        }
      }
    }
    if (row.name.name.empty()) {
      return RowError("missing component name", line_no, diag);
    }
    query.rows.push_back(std::move(row));
  }
  if (query.rows.empty()) return RowError("empty ZQL query", 0, diag);
  return query;
}

}  // namespace zv::zql
