// mcio-analyze: token/scope-aware static analysis for the repo's
// determinism and lock-discipline invariants (DESIGN.md §13).
//
// The simulator's core promise — byte-identical output at every
// host thread count — can be broken by one host-clock read, one
// unordered-container iteration feeding a hash, or one pointer-keyed
// map whose order ASLR decides. Those hazards are all visible in the
// source text; this analyzer finds them at review time, before a run
// has to get lucky to expose them. It is deliberately not a compiler
// plugin: a comment/string-blanking pass plus a brace-scope tracker
// over the raw text covers every rule below with zero dependencies, so
// the tool builds everywhere the tree builds.
//
// Rule catalog (ids as reported; see DESIGN.md §13 for the rationale):
//   wall-clock        host clock use inside src/{sim,io,mpi,core,pfs}
//   raw-random        RNG use inside src/{sim,io,mpi,core,pfs}
//   unordered-iter    range-for over unordered_{map,set} without a
//                     collect-then-sort downstream
//   pointer-key-order pointer-keyed std::map/std::set (or pointer-hashed
//                     unordered container): ASLR-dependent order
//   mutable-static    mutable static state inside src/{sim,io}
//   unobserved-park   park() call with no observer hook nearby
//   lock-order-cycle  cross-file lock-acquisition-order cycle
//   bad-suppression   malformed/unjustified allow() comment
//
// Suppression is inline-only, with a mandatory written justification:
//   // mcio-analyze: allow(<rule>[, <rule>]) -- <justification>
// on the finding's line or the line directly above it. There is no
// config file and no path-level opt-out — every suppression is visible
// in review next to the code it excuses.
#pragma once

#include <string>
#include <vector>

namespace mcio::analyze {

/// One diagnostic. `path` is the path the file was added under (the
/// repo-relative path in normal runs; fixtures use virtual paths), so
/// path-scoped rules behave identically in tests and on the real tree.
struct Finding {
  std::string path;
  int line = 1;
  std::string rule;
  std::string message;
  bool suppressed = false;
  /// Justification text of the suppressing allow() comment.
  std::string justification;
};

/// `path:line: [rule] message` (plus the justification when suppressed).
std::string format_finding(const Finding& f);

/// All rule ids the analyzer knows, sorted (for --list-rules and for
/// validating allow() lists).
const std::vector<std::string>& all_rules();

/// Accumulates files, then reports. Per-file rules run in add_file();
/// cross-file rules (lock-order-cycle) and suppression resolution run in
/// finish(). Findings come back sorted by (path, line, rule) — the
/// analyzer's own output must be deterministic too.
class Analyzer {
 public:
  Analyzer();

  /// Analyzes one file's contents under the given path.
  void add_file(const std::string& path, const std::string& content);

  /// Reads `fs_path` (file, or directory walked recursively for
  /// .h/.cc/.cpp/.hpp files; build*/.git/analyze_fixtures dirs are
  /// skipped) and analyzes everything found. Returns false when the
  /// path cannot be read.
  bool add_path(const std::string& fs_path);

  /// Cross-file rules + suppression resolution; call once at the end.
  /// Suppressed findings are included with suppressed=true (callers
  /// decide whether to show them); exit codes should key off the
  /// unsuppressed ones only.
  std::vector<Finding> finish();

 private:
  struct LockEdge {
    std::string from;
    std::string to;
    std::string path;
    int line = 1;
  };
  struct Suppression {
    std::string path;
    int line = 1;  ///< covers findings on `line` and `line + 1`
    std::vector<std::string> rules;
    std::string justification;
  };

  void analyze(const std::string& path, const std::string& content);

  std::vector<Finding> findings_;
  std::vector<LockEdge> lock_edges_;
  std::vector<Suppression> suppressions_;
};

}  // namespace mcio::analyze
