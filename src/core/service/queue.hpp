// Filesystem submission queue (rebench::service).
//
// The serve daemon has no socket: work arrives as files in a spool
// directory, the oldest portable IPC there is.  `rebench submit` (or a
// test, or a cron job) renders a campaign invocation into a JSON
// submission body, names the file by the body's content hash and drops
// it in with tmp + atomic rename — so a submission is always observed
// whole, duplicate submissions collapse onto one file, and a reader can
// detect tampering by re-hashing the bytes.  The daemon answers each
// submission with a verdict file in QUEUE/verdicts/, written durably so
// a crash after the verdict cannot lose it.
//
//   QUEUE/sub-<hash>.json        {"schema":"rebench.submission/1",
//                                 "invocation":{...}}
//   QUEUE/verdicts/<hash>.json   {"schema":"rebench.verdict/1", ...}
//   QUEUE/drain                  sentinel: finish current, then stop
//   QUEUE/service-journal.jsonl  write-ahead state (service/journal)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/store/manifest.hpp"

namespace rebench::service {

inline constexpr std::string_view kSubmissionSchema = "rebench.submission/1";
inline constexpr std::string_view kVerdictSchema = "rebench.verdict/1";

/// One queued submission as scanned from the spool directory.
struct Submission {
  std::string id;    // content hash, also the filename stem suffix
  std::string path;  // full path of the submission file
  store::CampaignInvocation invocation;
  /// False when the file was tampered with (hash mismatch) or malformed;
  /// `error` then says why.  Invalid submissions still get verdicts —
  /// silently dropping work is how queues rot.
  bool valid = true;
  std::string error;
};

/// Renders `inv` into a submission file under `queueDir` (created when
/// absent) via tmp + atomic rename.  Idempotent: the same invocation
/// always lands on the same file.  Returns the submission (id + path).
Submission enqueueSubmission(const std::string& queueDir,
                             const store::CampaignInvocation& inv);

/// Scans `queueDir` for sub-*.json files, sorted by filename so every
/// scan order — and therefore every verdict order — is deterministic.
/// Hash-verifies and parses each file; failures yield valid=false
/// entries rather than being skipped.
std::vector<Submission> scanQueue(const std::string& queueDir);

/// Submissions in `queueDir` with no verdict yet, counted from file names
/// alone: sub-<id>.json without verdicts/<id>.json, two directory
/// listings, no file read.  A tampered or malformed submission counts
/// until it is answered, just as scanQueue lists it.
int countUnanswered(const std::string& queueDir);

/// The fields the verdict file and the journal's `verdict` checkpoint
/// share: one field list, rendered and parsed in one place.
struct VerdictRecord {
  /// "cached" | "ran:clean" | "ran:regressed" | "failed:<taxonomy>"
  std::string verdict;
  std::string key;           // run-memoization key ("" when never derived)
  std::string manifestHash;  // campaign manifest hash ("" when never ran)
  bool degraded = false;     // served with reduced guarantees (see DESIGN §14)
  std::string detail;

  /// The five fields as JSON members in fixed order ("verdict", "key",
  /// "manifest", "degraded", "detail"), without braces, for a caller to
  /// embed after its own leading members.
  std::string renderFields() const;
  /// Reads the five members from a parsed object; absent ones default.
  static VerdictRecord parseFields(const obs::json::Value& value);
};

/// The daemon's answer to one submission.
struct Verdict : VerdictRecord {
  std::string submission;  // submission id

  /// One-line JSON, deterministic key order.  Deliberately excludes
  /// anything scheduling- or attempt-dependent so a crash-resumed daemon
  /// reproduces verdict bytes exactly.
  std::string serialize() const;
  static Verdict parse(const std::string& text);
};

/// QUEUE/verdicts/<id>.json
std::string verdictPath(const std::string& queueDir, const std::string& id);

/// Durably writes (tmp + fsync + rename) the verdict file.
void writeVerdict(const std::string& queueDir, const Verdict& verdict);

/// Drain sentinel: when QUEUE/drain exists the daemon finishes the
/// submission in flight, snapshots health and exits cleanly.
bool drainRequested(const std::string& queueDir);
void requestDrain(const std::string& queueDir);
void clearDrainRequest(const std::string& queueDir);

}  // namespace rebench::service
