#ifndef URLF_REPORT_JSON_H
#define URLF_REPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace urlf::report {

/// A small JSON value/writer — enough to export results and scan data in a
/// machine-readable form (the paper published its data; so do we).
/// Build values with the static factories, serialize with dump().
class Json {
 public:
  using Array = std::vector<Json>;
  /// std::map keeps key order deterministic across runs.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}

  static Json null() { return Json(); }
  static Json boolean(bool v) { return Json(Value{v}); }
  static Json number(double v) { return Json(Value{v}); }
  static Json number(std::int64_t v) {
    return Json(Value{static_cast<double>(v)});
  }
  static Json string(std::string_view v) {
    return Json(Value{std::string(v)});
  }
  static Json array(Array items = {}) { return Json(Value{std::move(items)}); }
  static Json object(Object members = {}) {
    return Json(Value{std::move(members)});
  }

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<Object>(value_);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<Array>(value_);
  }

  /// Member access; inserts on objects (like std::map::operator[]).
  /// Throws std::logic_error when the value is not an object.
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Append to an array value. Throws when not an array.
  void push(Json item);

  /// Typed accessors: non-null only when the value holds that type.
  [[nodiscard]] const Array* asArray() const {
    return std::get_if<Array>(&value_);
  }
  [[nodiscard]] const Object* asObject() const {
    return std::get_if<Object>(&value_);
  }
  [[nodiscard]] const std::string* asString() const {
    return std::get_if<std::string>(&value_);
  }
  [[nodiscard]] const double* asNumber() const {
    return std::get_if<double>(&value_);
  }
  [[nodiscard]] const bool* asBool() const { return std::get_if<bool>(&value_); }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Deepest array/object nesting parse() accepts. The deepest document the
  /// program itself writes nests 4 levels (identify, profile, session and
  /// scan dumps); deeper input is rejected instead of recursing on.
  static constexpr std::size_t kMaxDepth = 64;

  /// Parse a JSON document. Returns nullopt on any syntax error, trailing
  /// garbage, or nesting deeper than kMaxDepth; `error`, when given, then
  /// receives a one-line reason with the byte offset. Supports the standard
  /// scalar types, arrays, objects, and \uXXXX escapes for the BMP (encoded
  /// as UTF-8).
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  /// Escape a string for embedding in JSON (without the quotes).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  using Value =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;
  explicit Json(Value value) : value_(std::move(value)) {}

  void dumpTo(std::string& out, int indent, int depth) const;

  Value value_;
};

}  // namespace urlf::report

#endif  // URLF_REPORT_JSON_H
