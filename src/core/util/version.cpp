#include "core/util/version.hpp"

#include <cctype>

#include "core/util/error.hpp"

namespace rebench {

Version Version::parse(std::string_view text) {
  if (text.empty()) throw ParseError("empty version string");
  Version v;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) break;
    std::int64_t value = 0;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
      value = value * 10 + (text[i] - '0');
      ++i;
    }
    v.parts_.push_back(value);
    if (i < text.size() && text[i] == '.') {
      ++i;
      if (i == text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[i]))) {
        throw ParseError("malformed version: '" + std::string(text) + "'");
      }
    }
  }
  if (v.parts_.empty()) {
    throw ParseError("version must start with a digit: '" + std::string(text) +
                     "'");
  }
  v.suffix_ = std::string(text.substr(i));
  for (char c : v.suffix_) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      throw ParseError("malformed version suffix: '" + std::string(text) + "'");
    }
  }
  v.text_ = std::string(text);
  return v;
}

std::string Version::toString() const { return text_; }

bool Version::hasPrefix(const Version& prefix) const {
  if (prefix.parts_.size() > parts_.size()) return false;
  for (std::size_t i = 0; i < prefix.parts_.size(); ++i) {
    if (parts_[i] != prefix.parts_[i]) return false;
  }
  // A prefix with a suffix only matches the identical version.
  if (!prefix.suffix_.empty()) {
    return prefix.parts_.size() == parts_.size() && prefix.suffix_ == suffix_;
  }
  return true;
}

std::strong_ordering Version::operator<=>(const Version& other) const {
  const std::size_t n = std::max(parts_.size(), other.parts_.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Missing components sort before present ones: 1.2 < 1.2.0.
    const bool haveA = i < parts_.size();
    const bool haveB = i < other.parts_.size();
    if (haveA != haveB) {
      return haveA ? std::strong_ordering::greater
                   : std::strong_ordering::less;
    }
    if (parts_[i] != other.parts_[i]) {
      return parts_[i] <=> other.parts_[i];
    }
  }
  // Suffixed versions (pre-releases) sort before the plain release.
  const bool sa = !suffix_.empty();
  const bool sb = !other.suffix_.empty();
  if (sa != sb) return sa ? std::strong_ordering::less : std::strong_ordering::greater;
  return suffix_ <=> other.suffix_;
}

VersionConstraint VersionConstraint::parse(std::string_view text) {
  VersionConstraint c;
  if (text.empty()) return c;
  if (text.front() == '=') {
    c.exact_ = Version::parse(text.substr(1));
    c.strict_ = true;
    return c;
  }
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    c.exact_ = Version::parse(text);
    return c;
  }
  const std::string_view lo = text.substr(0, colon);
  const std::string_view hi = text.substr(colon + 1);
  if (!lo.empty()) c.low_ = Version::parse(lo);
  if (!hi.empty()) c.high_ = Version::parse(hi);
  if (c.low_ && c.high_ && *c.high_ < *c.low_) {
    throw ParseError("empty version range: '" + std::string(text) + "'");
  }
  return c;
}

VersionConstraint VersionConstraint::exactly(const Version& v) {
  VersionConstraint c;
  c.exact_ = v;
  c.strict_ = true;
  return c;
}

bool VersionConstraint::satisfiedBy(const Version& v) const {
  if (exact_) {
    return strict_ ? (v == *exact_) : v.hasPrefix(*exact_);
  }
  if (low_ && v < *low_) return false;
  // A ":1.9" upper bound admits any 1.9.x, i.e. prefix semantics on top.
  if (high_ && *high_ < v && !v.hasPrefix(*high_)) return false;
  return true;
}

std::optional<VersionConstraint> VersionConstraint::intersect(
    const VersionConstraint& other) const {
  if (isAny()) return other;
  if (other.isAny()) return *this;
  if (exact_) {
    if (other.satisfiedBy(*exact_)) return *this;
    if (other.exact_ && satisfiedBy(*other.exact_)) return other;
    return std::nullopt;
  }
  if (other.exact_) return other.intersect(*this);
  VersionConstraint out;
  out.low_ = low_;
  out.high_ = high_;
  if (other.low_ && (!out.low_ || *out.low_ < *other.low_)) {
    out.low_ = other.low_;
  }
  if (other.high_ && (!out.high_ || *other.high_ < *out.high_)) {
    out.high_ = other.high_;
  }
  if (out.low_ && out.high_ && *out.high_ < *out.low_) return std::nullopt;
  return out;
}

std::string VersionConstraint::toString() const {
  if (isAny()) return "";
  if (exact_) {
    return std::string(strict_ ? "=" : "").append(exact_->toString());
  }
  std::string out;
  if (low_) out += low_->toString();
  out += ':';
  if (high_) out += high_->toString();
  return out;
}

}  // namespace rebench
