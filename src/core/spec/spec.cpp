#include "core/spec/spec.hpp"

#include <algorithm>
#include <cctype>

#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

bool isNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
         c == '.';
}

// Reads a package/variant/compiler identifier starting at `i`.
std::string readName(std::string_view text, std::size_t& i) {
  const std::size_t start = i;
  while (i < text.size() && isNameChar(text[i])) ++i;
  if (i == start) {
    throw ParseError("expected identifier at position " +
                     std::to_string(start) + " in '" + std::string(text) +
                     "'");
  }
  return std::string(text.substr(start, i - start));
}

// Reads the version text after '@' (digits, dots, ':', '=', suffix chars).
std::string readVersionText(std::string_view text, std::size_t& i) {
  const std::size_t start = i;
  while (i < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[i])) ||
          text[i] == '.' || text[i] == ':' || text[i] == '=' ||
          text[i] == '-' || text[i] == '_')) {
    ++i;
  }
  return std::string(text.substr(start, i - start));
}

// Parses the sigil-suffixed parts of one spec token into `spec`, starting
// from position `i` (the name, if any, has already been consumed).
void parseAnchors(std::string_view token, std::size_t& i, Spec& spec) {
  while (i < token.size()) {
    const char c = token[i];
    if (c == '@') {
      ++i;
      spec.setVersions(VersionConstraint::parse(readVersionText(token, i)));
    } else if (c == '%') {
      ++i;
      CompilerSpec comp;
      comp.name = readName(token, i);
      if (i < token.size() && token[i] == '@') {
        ++i;
        comp.versions = VersionConstraint::parse(readVersionText(token, i));
      }
      spec.setCompiler(std::move(comp));
    } else if (c == '+' || c == '~') {
      ++i;
      spec.setVariant(readName(token, i), c == '+');
    } else if (isNameChar(c)) {
      // key=value variant
      std::string key = readName(token, i);
      if (i >= token.size() || token[i] != '=') {
        throw ParseError("expected '=' after variant '" + key + "' in '" +
                         std::string(token) + "'");
      }
      ++i;
      const std::size_t start = i;
      while (i < token.size() && token[i] != ' ') ++i;
      spec.setVariant(std::move(key),
                      std::string(token.substr(start, i - start)));
    } else {
      throw ParseError("unexpected character '" + std::string(1, c) +
                       "' in spec '" + std::string(token) + "'");
    }
  }
}

}  // namespace

std::string variantToString(std::string_view name, const VariantValue& value) {
  if (const bool* b = std::get_if<bool>(&value)) {
    return std::string(*b ? "+" : "~").append(name);
  }
  return std::string(name) + "=" + std::get<std::string>(value);
}

std::string CompilerSpec::toString() const {
  std::string out = "%" + name;
  if (!versions.isAny()) out.append("@").append(versions.toString());
  return out;
}

Spec Spec::parse(std::string_view text) {
  const std::string_view trimmed = str::trim(text);
  if (trimmed.empty()) throw ParseError("empty spec");

  Spec root;
  std::vector<Spec> deps;
  Spec* current = &root;
  bool first = true;
  for (const std::string& rawToken : str::splitWhitespace(trimmed)) {
    std::string_view token = rawToken;
    std::size_t i = 0;
    if (token.front() == '^') {
      i = 1;
      if (i >= token.size() || !isNameChar(token[i])) {
        throw ParseError("dependency sigil '^' must be followed by a name: '" +
                         rawToken + "'");
      }
      deps.emplace_back();
      current = &deps.back();
      current->name_ = readName(token, i);
    } else if (first && isNameChar(token.front()) &&
               token.find('=') == std::string_view::npos) {
      // The first token names the root package (unless anonymous).
      root.name_ = readName(token, i);
    }
    parseAnchors(token, i, *current);
    first = false;
  }
  for (Spec& dep : deps) root.addDependency(std::move(dep));
  return root;
}

Spec& Spec::setVersions(VersionConstraint c) {
  versions_ = std::move(c);
  return *this;
}

Spec& Spec::setCompiler(CompilerSpec c) {
  compiler_ = std::move(c);
  return *this;
}

Spec& Spec::setVariant(std::string name, VariantValue value) {
  variants_[std::move(name)] = std::move(value);
  return *this;
}

Spec& Spec::addDependency(Spec dep) {
  dependencies_.push_back(std::move(dep));
  return *this;
}

bool Spec::satisfies(const Spec& other) const {
  if (!other.name_.empty() && other.name_ != name_) return false;
  if (!other.versions_.isAny()) {
    // An abstract spec satisfies another only if its constraint is at least
    // as tight; we approximate with non-empty intersection + exactness.
    auto meet = versions_.intersect(other.versions_);
    if (!meet) return false;
    if (versions_.isAny()) return false;
  }
  if (other.compiler_) {
    if (!compiler_ || compiler_->name != other.compiler_->name) return false;
    if (!other.compiler_->versions.isAny()) {
      if (!compiler_->versions.intersect(other.compiler_->versions)) {
        return false;
      }
    }
  }
  for (const auto& [key, value] : other.variants_) {
    auto it = variants_.find(key);
    if (it == variants_.end() || it->second != value) return false;
  }
  return true;
}

void Spec::constrain(const Spec& other) {
  if (!other.name_.empty()) {
    if (name_.empty()) {
      name_ = other.name_;
    } else if (name_ != other.name_) {
      throw ConcretizationError("cannot constrain '" + name_ + "' with '" +
                                other.name_ + "'");
    }
  }
  if (!other.versions_.isAny()) {
    auto meet = versions_.intersect(other.versions_);
    if (!meet) {
      throw ConcretizationError(
          "conflicting version constraints on '" + name_ + "': @" +
          versions_.toString() + " vs @" + other.versions_.toString());
    }
    versions_ = *meet;
  }
  if (other.compiler_) {
    if (!compiler_) {
      compiler_ = other.compiler_;
    } else {
      if (compiler_->name != other.compiler_->name) {
        throw ConcretizationError("conflicting compilers on '" + name_ +
                                  "': %" + compiler_->name + " vs %" +
                                  other.compiler_->name);
      }
      auto meet = compiler_->versions.intersect(other.compiler_->versions);
      if (!meet) {
        throw ConcretizationError("conflicting compiler versions on '" +
                                  name_ + "'");
      }
      compiler_->versions = *meet;
    }
  }
  for (const auto& [key, value] : other.variants_) {
    auto it = variants_.find(key);
    if (it != variants_.end() && it->second != value) {
      throw ConcretizationError("conflicting values for variant '" + key +
                                "' on '" + name_ + "'");
    }
    variants_[key] = value;
  }
  for (const Spec& dep : other.dependencies_) {
    addDependency(dep);
  }
}

std::string Spec::toString() const {
  std::string out = name_;
  if (!versions_.isAny()) out.append("@").append(versions_.toString());
  if (compiler_) out += compiler_->toString();
  for (const auto& [key, value] : variants_) {
    out.append(" ").append(variantToString(key, value));
  }
  for (const Spec& dep : dependencies_) {
    out += " ^" + dep.toString();
  }
  return out;
}

std::string ConcreteSpec::dagHash() const {
  Hasher h;
  h.update(name).update(version.toString());
  h.update(compilerName).update(compilerVersion.toString());
  for (const auto& [key, value] : variants) {
    h.update(variantToString(key, value));
  }
  for (const auto& [depName, dep] : dependencies) {
    h.update(depName).update(dep->dagHash());
  }
  h.update(external ? std::uint64_t{1} : std::uint64_t{0});
  return h.shortHash();
}

std::string ConcreteSpec::shortForm() const {
  std::string out = name + "@" + version.toString();
  if (!compilerName.empty()) {
    out += "%" + compilerName + "@" + compilerVersion.toString();
  }
  for (const auto& [key, value] : variants) {
    if (const bool* b = std::get_if<bool>(&value)) {
      out += (*b ? "+" : "~") + key;
    } else {
      out += " " + key + "=" + std::get<std::string>(value);
    }
  }
  return out;
}

namespace {
void renderTree(const ConcreteSpec& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 4, ' ');
  if (depth > 0) out += "^";
  out += node.shortForm();
  if (node.external) out += "  [external: " + node.externalOrigin + "]";
  out += "  /" + node.dagHash();
  out += "\n";
  for (const auto& [name, dep] : node.dependencies) {
    renderTree(*dep, depth + 1, out);
  }
}
}  // namespace

std::string ConcreteSpec::tree() const {
  std::string out;
  renderTree(*this, 0, out);
  return out;
}

bool ConcreteSpec::satisfiesNode(const Spec& abstract) const {
  if (!abstract.name().empty() && abstract.name() != name) return false;
  if (!abstract.versions().satisfiedBy(version)) return false;
  if (abstract.compiler()) {
    if (abstract.compiler()->name != compilerName) return false;
    if (!abstract.compiler()->versions.satisfiedBy(compilerVersion)) {
      return false;
    }
  }
  for (const auto& [key, value] : abstract.variants()) {
    auto it = variants.find(key);
    if (it == variants.end() || it->second != value) return false;
  }
  return true;
}

const ConcreteSpec* ConcreteSpec::find(std::string_view depName) const {
  if (name == depName) return this;
  for (const auto& [childName, dep] : dependencies) {
    if (const ConcreteSpec* hit = dep->find(depName)) return hit;
  }
  return nullptr;
}

}  // namespace rebench
