// perfbench: one binary, three workloads of the emx stack. Usually started
// through run.py, which builds it, adds provenance and trace analysis, and
// prints the final result line.
//
//   perfbench --workload pair_stream|catalog_churn|finetune --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--ref-loss X]
//             [--reference-loss] [--self-test]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics ({name: {value, unit}}) and report (inputs, checks, the
// workload's own metric names).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "quant/int8_gemm.h"
#include "util/thread_pool.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--reference-loss") {
      args->reference_only = true;
      continue;
    }
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = v;
    } else if (flag == "--ref-loss") {
      args->ref_loss = std::atof(v);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--ref-loss X] "
                 "[--reference-loss] [--self-test]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  perfbench::Results out;
  int rc = 2;
  if (args.workload == "pair_stream") {
    rc = perfbench::RunPairStream(args, &out);
  } else if (args.workload == "catalog_churn") {
    rc = perfbench::RunCatalogChurn(args, &out);
  } else if (args.workload == "finetune") {
    rc = perfbench::RunFinetune(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.reference_only) return rc;

  out.NoteText("workload", args.workload);
  out.Note("seed", static_cast<double>(args.seed));
  out.Note("seconds", args.seconds);
  out.Note("threads",
           static_cast<double>(emx::GlobalThreadPool()->num_threads()));
  out.Note("int8_vnni_kernel", emx::quant::HasVnniKernel() ? 1 : 0);
  std::printf("%s\n", out.ToJson().c_str());
  std::fflush(stdout);
  return rc;
}
