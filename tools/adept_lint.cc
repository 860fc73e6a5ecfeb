// adept_lint: batch schema verification with a machine-readable report.
//
// Runs the src/verify/ analyzer over a set of process schemas and emits one
// JSON findings document (schema documented in src/verify/README.md).
// Sources:
//
//   adept_lint --examples
//       Lint the built-in example catalog (tools/example_schemas.h).
//   adept_lint --schema FILE.json [FILE.json ...]
//       Lint schemas serialized with SchemaToJson (model/serialization.h).
//   adept_lint --state WAL [--snapshot FILE] [--repl-status FILE]
//       Recover an AdeptSystem from its WAL (+ optional snapshot) and lint
//       every schema version stored in its repository, plus the runtime-
//       health rules over the recovered instances and their claims (AV011
//       stuck-activity, AV012 orphaned-claim, and with --repl-status AV013
//       replication-degraded; see verify/state_lint.h). A cluster shard is
//       linted through its own files ("<cluster_wal>.shard<k>").
//   adept_lint --wal-dump WAL
//       Decode a WAL without recovering from it: per-record-type counts
//       and payload bytes, split into full-state records (a complete
//       serialized artifact: deploy/repo/import/org) and delta records
//       (everything logged incrementally, claim records included). The
//       split is how to audit what a log costs to ship.
//
// Options: --out FILE writes the report there instead of stdout.
// Exit status: 0 = no error-severity findings, 1 = at least one error,
// 2 = usage or I/O failure.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/adept.h"
#include "model/schema.h"
#include "model/serialization.h"
#include "storage/schema_repository.h"
#include "storage/wal.h"
#include "tools/example_schemas.h"
#include "verify/state_lint.h"
#include "verify/verifier.h"

namespace adept {
namespace {

struct LintInput {
  std::string source;  // file path, "examples:<name>", or "state:<type>/vN"
  std::shared_ptr<const ProcessSchema> schema;
  const VerificationReport* stored = nullptr;  // reuse repository analysis
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --examples [--out FILE]\n"
      << "       " << argv0 << " --schema FILE.json [FILE.json ...] "
      << "[--out FILE]\n"
      << "       " << argv0 << " --state WAL [--snapshot FILE] "
      << "[--repl-status FILE] [--out FILE]\n"
      << "       " << argv0 << " --wal-dump WAL [--out FILE]\n";
  return 2;
}

// Whether a record carries a complete serialized artifact rather than an
// incremental change.
bool IsFullStateRecord(const JsonValue& record) {
  const std::string& type = record.Get("t").as_string();
  return type == "deploy" || type == "repo" || type == "import" ||
         type == "org";
}

int RunWalDump(const std::string& wal_path, const std::string& out_path) {
  auto records = WriteAheadLog::ReadAll(wal_path);
  if (!records.ok()) {
    std::cerr << "adept_lint: read " << wal_path << ": "
              << records.status().message() << "\n";
    return 2;
  }
  struct Bucket {
    int64_t records = 0;
    int64_t bytes = 0;
  };
  std::map<std::string, Bucket> by_type;
  Bucket full_state;
  Bucket delta;
  for (const JsonValue& record : *records) {
    std::string type = record.Get("t").as_string();
    if (type.empty()) type = "unknown";
    const auto bytes = static_cast<int64_t>(record.Dump().size());
    Bucket& bucket = by_type[type];
    ++bucket.records;
    bucket.bytes += bytes;
    Bucket& side = IsFullStateRecord(record) ? full_state : delta;
    ++side.records;
    side.bytes += bytes;
  }

  auto bucket_json = [](const Bucket& b) {
    JsonValue j = JsonValue::MakeObject();
    j.Set("records", JsonValue(b.records));
    j.Set("bytes", JsonValue(b.bytes));
    return j;
  };
  JsonValue types = JsonValue::MakeObject();
  for (const auto& [type, bucket] : by_type) {
    types.Set(type, bucket_json(bucket));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("tool", JsonValue(std::string("adept_lint")));
  doc.Set("mode", JsonValue(std::string("wal-dump")));
  doc.Set("wal", JsonValue(wal_path));
  doc.Set("records", JsonValue(static_cast<int64_t>(records->size())));
  doc.Set("by_type", std::move(types));
  doc.Set("full_state", bucket_json(full_state));
  doc.Set("delta", bucket_json(delta));

  const std::string text = doc.Dump();
  if (out_path.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "adept_lint: cannot write " << out_path << "\n";
      return 2;
    }
    out << text << "\n";
  }
  return 0;
}

Result<std::shared_ptr<const ProcessSchema>> LoadSchemaFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  ADEPT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(buf.str()));
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<ProcessSchema> schema,
                         SchemaFromJson(json));
  return std::shared_ptr<const ProcessSchema>(std::move(schema));
}

// One entry of the report's "schemas" array.
JsonValue LintOne(const LintInput& input, int& total_errors,
                  int& total_warnings) {
  VerificationReport local;
  const VerificationReport* report = input.stored;
  if (report == nullptr) {
    local = VerifySchema(*input.schema);
    report = &local;
  }
  JsonValue entry = JsonValue::MakeObject();
  entry.Set("source", JsonValue(input.source));
  entry.Set("type", JsonValue(input.schema->type_name()));
  entry.Set("schema_version",
            JsonValue(static_cast<int64_t>(input.schema->version())));
  entry.Set("nodes",
            JsonValue(static_cast<int64_t>(input.schema->node_count())));
  JsonValue findings = report->ToJson();
  total_errors += static_cast<int>(report->error_count());
  total_warnings += static_cast<int>(report->warning_count());
  entry.Set("report", std::move(findings));
  return entry;
}

int Run(int argc, char** argv) {
  std::vector<std::string> schema_files;
  std::string wal_path;
  std::string wal_dump_path;
  std::string snapshot_path;
  std::string repl_status_path;
  std::string out_path;
  bool examples = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--examples") {
      examples = true;
    } else if (arg == "--schema") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        schema_files.emplace_back(argv[++i]);
      }
      if (schema_files.empty()) return Usage(argv[0]);
    } else if (arg == "--state") {
      if (i + 1 >= argc) return Usage(argv[0]);
      wal_path = argv[++i];
    } else if (arg == "--wal-dump") {
      if (i + 1 >= argc) return Usage(argv[0]);
      wal_dump_path = argv[++i];
    } else if (arg == "--snapshot") {
      if (i + 1 >= argc) return Usage(argv[0]);
      snapshot_path = argv[++i];
    } else if (arg == "--repl-status") {
      if (i + 1 >= argc) return Usage(argv[0]);
      repl_status_path = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) return Usage(argv[0]);
      out_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const int modes = (examples ? 1 : 0) + (schema_files.empty() ? 0 : 1) +
                    (wal_path.empty() ? 0 : 1) +
                    (wal_dump_path.empty() ? 0 : 1);
  if (modes != 1) return Usage(argv[0]);
  if (!wal_dump_path.empty()) return RunWalDump(wal_dump_path, out_path);

  std::vector<LintInput> inputs;
  std::unique_ptr<AdeptSystem> system;  // keeps stored reports alive

  if (examples) {
    for (auto& ex : tools::ExampleCatalog()) {
      inputs.push_back({"examples:" + ex.name, ex.schema, nullptr});
    }
  } else if (!schema_files.empty()) {
    for (const std::string& path : schema_files) {
      auto schema = LoadSchemaFile(path);
      if (!schema.ok()) {
        std::cerr << "adept_lint: " << path << ": "
                  << schema.status().message() << "\n";
        return 2;
      }
      inputs.push_back({path, *schema, nullptr});
    }
  } else {
    AdeptOptions options;
    options.wal_path = wal_path;
    options.snapshot_path = snapshot_path;
    auto recovered = AdeptSystem::Recover(options);
    if (!recovered.ok()) {
      std::cerr << "adept_lint: recover from " << wal_path << ": "
                << recovered.status().message() << "\n";
      return 2;
    }
    system = std::move(*recovered);
    for (SchemaId id : system->repository().AllIds()) {
      auto schema = system->repository().Get(id);
      auto report = system->repository().ReportFor(id);
      if (!schema.ok() || !report.ok()) continue;
      inputs.push_back({"state:" + (*schema)->type_name() + "/v" +
                            std::to_string((*schema)->version()),
                        *schema, *report});
    }
  }

  int total_errors = 0;
  int total_warnings = 0;
  JsonValue schemas = JsonValue::MakeArray();
  for (const LintInput& input : inputs) {
    schemas.Append(LintOne(input, total_errors, total_warnings));
  }

  // Runtime-health rules over the recovered instances (state mode only).
  JsonValue runtime;
  if (system != nullptr) {
    StateLintOptions state_options;
    state_options.repl_status_path = repl_status_path;
    auto report =
        LintRuntimeState(system->engine(), system->claims(), state_options);
    if (!report.ok()) {
      std::cerr << "adept_lint: runtime lint: " << report.status().message()
                << "\n";
      return 2;
    }
    total_errors += static_cast<int>(report->error_count());
    total_warnings += static_cast<int>(report->warning_count());
    runtime = report->ToJson();
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("tool", JsonValue(std::string("adept_lint")));
  doc.Set("format_version", JsonValue(static_cast<int64_t>(1)));
  doc.Set("schemas_analyzed", JsonValue(static_cast<int64_t>(inputs.size())));
  doc.Set("total_errors", JsonValue(static_cast<int64_t>(total_errors)));
  doc.Set("total_warnings", JsonValue(static_cast<int64_t>(total_warnings)));
  doc.Set("schemas", std::move(schemas));
  if (system != nullptr) doc.Set("runtime", std::move(runtime));

  const std::string text = doc.Dump();
  if (out_path.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "adept_lint: cannot write " << out_path << "\n";
      return 2;
    }
    out << text << "\n";
  }
  return total_errors > 0 ? 1 : 0;
}

}  // namespace
}  // namespace adept

int main(int argc, char** argv) { return adept::Run(argc, argv); }
