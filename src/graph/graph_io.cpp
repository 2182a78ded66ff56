#include "graph/graph_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace mimdmap {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("graph_io: line " + std::to_string(line) + ": " + what);
}

/// Reads one significant (non-empty, non-comment) line; returns false on EOF.
bool next_line(std::istream& is, std::string& out, std::size_t& line_no) {
  while (std::getline(is, out)) {
    ++line_no;
    const auto first = out.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (out[first] == '#') continue;
    return true;
  }
  return false;
}

/// Reads one line the way `std::istream >>` reads it in the "C" locale,
/// without building a stream: word() is a whitespace-delimited string,
/// number() a decimal integer with an optional sign that stops at the
/// first non-digit — whatever follows stays for the next read, so
/// "edge 0 1 2x" parses (trailing text is never looked at) while
/// "edge 0 1x 2" fails at the third number. Out-of-range values fail.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) noexcept : rest_(line) {}

  bool word(std::string_view& out) noexcept {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    if (n == 0) return false;
    out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return true;
  }

  template <typename Int>
  bool number(Int& out) noexcept {
    skip_space();
    const char* first = rest_.data();
    const char* const last = first + rest_.size();
    // The stream takes one leading '+', which from_chars does not.
    if (first != last && *first == '+') {
      ++first;
      if (first == last || *first < '0' || *first > '9') return false;
    }
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{}) return false;
    rest_.remove_prefix(static_cast<std::size_t>(ptr - rest_.data()));
    return true;
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
  }
  void skip_space() noexcept {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

}  // namespace

std::string to_dot(const TaskGraph& g) {
  std::ostringstream os;
  os << "digraph taskgraph {\n  rankdir=TB;\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  t" << v << " [label=\"" << v << " (" << g.node_weight(v) << ")\"];\n";
  }
  for (const TaskEdge& e : g.edges()) {
    os << "  t" << e.from << " -> t" << e.to << " [label=\"" << e.weight << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const SystemGraph& g) {
  std::ostringstream os;
  os << "graph \"" << g.name() << "\" {\n  node [shape=box];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  p" << v << " [label=\"P" << v << "\"];\n";
  }
  for (const SystemLink& l : g.links()) {
    os << "  p" << l.a << " -- p" << l.b;
    if (l.weight != 1) os << " [label=\"" << l.weight << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

void write_text(std::ostream& os, const TaskGraph& g) {
  os << "taskgraph " << g.node_count() << "\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "node " << v << " " << g.node_weight(v) << "\n";
  }
  for (const TaskEdge& e : g.edges()) {
    os << "edge " << e.from << " " << e.to << " " << e.weight << "\n";
  }
}

void write_text(std::ostream& os, const SystemGraph& g) {
  os << "systemgraph " << g.node_count() << " " << g.name() << "\n";
  for (const SystemLink& l : g.links()) {
    os << "link " << l.a << " " << l.b << " " << l.weight << "\n";
  }
}

std::string to_text(const TaskGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

std::string to_text(const SystemGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

TaskGraph read_task_graph(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no)) fail(line_no, "empty input");
  LineCursor header(line);
  std::string_view tag;
  NodeId n = 0;
  if (!(header.word(tag) && header.number(n)) || tag != "taskgraph" || n < 0) {
    fail(line_no, "expected 'taskgraph <np>'");
  }
  TaskGraph g(n);
  NodeId nodes_seen = 0;
  while (nodes_seen < n) {
    if (!next_line(is, line, line_no)) fail(line_no, "unexpected EOF in node list");
    LineCursor ls(line);
    NodeId id = 0;
    Weight w = 0;
    if (!(ls.word(tag) && ls.number(id) && ls.number(w)) || tag != "node") {
      fail(line_no, "expected 'node <id> <weight>'");
    }
    if (id != nodes_seen) fail(line_no, "node ids must be consecutive from 0");
    g.set_node_weight(id, w);
    ++nodes_seen;
  }
  while (next_line(is, line, line_no)) {
    LineCursor ls(line);
    NodeId from = 0;
    NodeId to = 0;
    Weight w = 0;
    if (!(ls.word(tag) && ls.number(from) && ls.number(to) && ls.number(w)) || tag != "edge") {
      fail(line_no, "expected 'edge <from> <to> <weight>'");
    }
    g.add_edge(from, to, w);
  }
  g.validate();
  return g;
}

SystemGraph read_system_graph(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no)) fail(line_no, "empty input");
  LineCursor header(line);
  std::string_view tag;
  std::string_view name;
  NodeId n = 0;
  if (!(header.word(tag) && header.number(n)) || tag != "systemgraph" || n < 0) {
    fail(line_no, "expected 'systemgraph <ns> [name]'");
  }
  if (!header.word(name)) name = "custom";
  SystemGraph g(n, std::string(name));
  while (next_line(is, line, line_no)) {
    LineCursor ls(line);
    NodeId a = 0;
    NodeId b = 0;
    Weight w = 0;
    if (!(ls.word(tag) && ls.number(a) && ls.number(b) && ls.number(w)) || tag != "link") {
      fail(line_no, "expected 'link <a> <b> <weight>'");
    }
    g.add_link(a, b, w);
  }
  return g;
}

TaskGraph task_graph_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_task_graph(is);
}

SystemGraph system_graph_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_system_graph(is);
}

}  // namespace mimdmap
