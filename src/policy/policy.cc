#include "policy/policy.h"

#include <cctype>
#include <map>

namespace ironsafe::policy {

std::string_view PermName(Perm p) {
  switch (p) {
    case Perm::kRead:
      return "read";
    case Perm::kWrite:
      return "write";
    case Perm::kExec:
      return "exec";
  }
  return "?";
}

namespace {

const std::map<std::string, PredKind>& PredNames() {
  static const auto* kMap = new std::map<std::string, PredKind>{
      {"sessionkeyis", PredKind::kSessionKeyIs},
      {"storagelocis", PredKind::kStorageLocIs},
      {"hostlocis", PredKind::kHostLocIs},
      {"fwversionstorage", PredKind::kFwVersionStorage},
      {"fwversionhost", PredKind::kFwVersionHost},
      {"le", PredKind::kLe},
      {"reusemap", PredKind::kReuseMap},
      {"logupdate", PredKind::kLogUpdate},
  };
  return *kMap;
}

std::string_view PredName(PredKind k) {
  switch (k) {
    case PredKind::kSessionKeyIs: return "sessionKeyIs";
    case PredKind::kStorageLocIs: return "storageLocIs";
    case PredKind::kHostLocIs: return "hostLocIs";
    case PredKind::kFwVersionStorage: return "fwVersionStorage";
    case PredKind::kFwVersionHost: return "fwVersionHost";
    case PredKind::kLe: return "le";
    case PredKind::kReuseMap: return "reuseMap";
    case PredKind::kLogUpdate: return "logUpdate";
  }
  return "?";
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// Minimal hand-rolled scanner for the policy grammar.
class PolicyParser {
 public:
  explicit PolicyParser(std::string_view text) : text_(text) {}

  Result<PolicySet> Parse() {
    PolicySet set;
    SkipSpace();
    while (!AtEnd()) {
      ASSIGN_OR_RETURN(PolicyRule rule, ParseRule());
      set.rules.push_back(std::move(rule));
      SkipSpace();
    }
    if (set.rules.empty()) {
      return Status::InvalidArgument("empty policy document");
    }
    return set;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == '#') {  // comments to end of line
        while (!AtEnd() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool Match(std::string_view s) {
    SkipSpace();
    if (text_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Result<std::string> ReadWord() {
    SkipSpace();
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                        text_[pos_] == '_' || text_[pos_] == '-' ||
                        text_[pos_] == '.' || text_[pos_] == ':' ||
                        text_[pos_] == '*')) {
      // ':' handled here only inside args; rule separators match earlier.
      if (text_[pos_] == ':' && text_.substr(pos_, 2) == "::") break;
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected word at offset " +
                                     std::to_string(pos_));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<PolicyRule> ParseRule() {
    ASSIGN_OR_RETURN(std::string perm_word, ReadWord());
    std::string lp = Lower(perm_word);
    PolicyRule rule;
    if (lp == "read") {
      rule.perm = Perm::kRead;
    } else if (lp == "write") {
      rule.perm = Perm::kWrite;
    } else if (lp == "exec") {
      rule.perm = Perm::kExec;
    } else {
      return Status::InvalidArgument("unknown permission: " + perm_word);
    }
    if (!Match("::=") && !Match(":--") && !Match(":-")) {
      return Status::InvalidArgument("expected '::=' after permission");
    }
    ASSIGN_OR_RETURN(rule.expr, ParseOr());
    return rule;
  }

  Result<std::unique_ptr<PolicyExpr>> ParseOr() {
    ASSIGN_OR_RETURN(auto left, ParseAnd());
    while (Match("|")) {
      ASSIGN_OR_RETURN(auto right, ParseAnd());
      auto node = std::make_unique<PolicyExpr>();
      node->kind = PolicyExpr::Kind::kOr;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<std::unique_ptr<PolicyExpr>> ParseAnd() {
    ASSIGN_OR_RETURN(auto left, ParseFactor());
    while (Match("&")) {
      ASSIGN_OR_RETURN(auto right, ParseFactor());
      auto node = std::make_unique<PolicyExpr>();
      node->kind = PolicyExpr::Kind::kAnd;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<std::unique_ptr<PolicyExpr>> ParseFactor() {
    if (Match("(")) {
      ASSIGN_OR_RETURN(auto inner, ParseOr());
      if (!Match(")")) return Status::InvalidArgument("expected ')'");
      return inner;
    }
    ASSIGN_OR_RETURN(std::string name, ReadWord());
    auto it = PredNames().find(Lower(name));
    if (it == PredNames().end()) {
      return Status::InvalidArgument("unknown predicate: " + name);
    }
    auto node = std::make_unique<PolicyExpr>();
    node->kind = PolicyExpr::Kind::kPredicate;
    node->pred = it->second;
    if (!Match("(")) {
      return Status::InvalidArgument("expected '(' after " + name);
    }
    if (!Match(")")) {
      do {
        ASSIGN_OR_RETURN(std::string arg, ReadWord());
        node->args.push_back(std::move(arg));
      } while (Match(","));
      if (!Match(")")) return Status::InvalidArgument("expected ')'");
    }
    return node;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<PolicyExpr> PolicyExpr::Clone() const {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = kind;
  e->pred = pred;
  e->args = args;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  return e;
}

std::string PolicyExpr::ToString() const {
  switch (kind) {
    case Kind::kPredicate: {
      std::string out(PredName(pred));
      out += "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        out += args[i];
      }
      out += ")";
      return out;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // Built by appending: GCC 12 misreads `"(" + std::string&&` (an
      // insert at 0) as an overlapping memcpy (-Wrestrict).
      std::string out = "(";
      out += left->ToString();
      out += kind == Kind::kAnd ? " & " : " | ";
      out += right->ToString();
      out += ")";
      return out;
    }
  }
  return "?";
}

const PolicyExpr* PolicySet::Find(Perm perm) const {
  for (const PolicyRule& rule : rules) {
    if (rule.perm == perm) return rule.expr.get();
  }
  return nullptr;
}

std::string PolicySet::ToString() const {
  std::string out;
  for (const PolicyRule& rule : rules) {
    out += std::string(PermName(rule.perm)) + " ::= " + rule.expr->ToString() +
           "\n";
  }
  return out;
}

Result<PolicySet> ParsePolicy(std::string_view text) {
  PolicyParser parser(text);
  return parser.Parse();
}

}  // namespace ironsafe::policy
