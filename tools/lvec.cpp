// lvec — the conformance-corpus tool.
//
// The corpus under tests/vectors/ is generated, committed, and then treated
// as ground truth: CI replays it against every CPU model and regenerates it
// to prove the checked-in files still match the generator (the drift gate).
// lvec is the one tool for all of that:
//
//   lvec gen --out DIR [--seed N] [--cases N] [--only KEY]
//       (re)write the per-mnemonic corpus files
//   lvec verify --dir DIR
//       regenerate each file with its recorded header parameters and fail
//       on any byte difference (drift gate)
//   lvec replay (--dir DIR | --file F) [--leg L | --legs L1,L2,...]
//               [--case NAME]
//       run every vector on all four legs (or the named subset of
//       iu/pipe-slow/pipe-fast/pipe-run), report divergences
//   lvec coverage --dir DIR
//       fail unless every implemented mnemonic has a parseable file with
//       at least one vector
//   lvec diff FILE_A FILE_B
//       first per-case difference between two corpus files
//
// Exit codes: 0 all good, 1 a check failed, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "conform/generator.hpp"
#include "conform/replay.hpp"
#include "conform/vector.hpp"

namespace {

using namespace la;
using namespace la::conform;

int usage() {
  std::fprintf(
      stderr,
      "usage: lvec gen --out DIR [--seed N] [--cases N] [--only KEY]\n"
      "       lvec verify --dir DIR\n"
      "       lvec replay (--dir DIR | --file F) [--leg L | --legs "
      "L1,L2,...] [--case NAME]\n"
      "                   legs: iu pipe-slow pipe-fast pipe-run\n"
      "       lvec coverage --dir DIR\n"
      "       lvec diff FILE_A FILE_B\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return out.good();
}

std::string corpus_path(const std::string& dir, const std::string& key) {
  return dir + "/" + key + ".json";
}

bool load_corpus(const std::string& path, CorpusFile& f) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "lvec: cannot read %s\n", path.c_str());
    return false;
  }
  std::string err;
  if (!parse_corpus_file(text, f, err)) {
    std::fprintf(stderr, "lvec: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

struct Options {
  std::string dir;
  std::string only;       // corpus key filter (gen)
  std::string file;       // single corpus file (replay)
  std::string leg;        // leg name filter (replay)
  std::string legs;       // comma-separated leg subset (replay)
  std::string case_name;  // case name filter (replay)
  u64 seed = kDefaultSeed;
  int cases = kDefaultCases;
};

bool parse_options(int argc, char** argv, int first, Options& o) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--out" || a == "--dir") {
      if (!value(o.dir)) return false;
    } else if (a == "--only") {
      if (!value(o.only)) return false;
    } else if (a == "--file") {
      if (!value(o.file)) return false;
    } else if (a == "--leg") {
      if (!value(o.leg)) return false;
    } else if (a == "--legs") {
      if (!value(o.legs)) return false;
    } else if (a == "--case") {
      if (!value(o.case_name)) return false;
    } else if (a == "--seed") {
      if (!value(v)) return false;
      o.seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (a == "--cases") {
      if (!value(v)) return false;
      o.cases = static_cast<int>(std::strtol(v.c_str(), nullptr, 0));
      if (o.cases < 1) return false;
    } else {
      std::fprintf(stderr, "lvec: unknown option %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

// ---- gen ----------------------------------------------------------------

int cmd_gen(const Options& o) {
  if (o.dir.empty()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(o.dir, ec);
  if (ec) {
    std::fprintf(stderr, "lvec: cannot create %s: %s\n", o.dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  int written = 0;
  for (const isa::Mnemonic mn : corpus_mnemonics()) {
    const std::string key = corpus_key(mn);
    if (!o.only.empty() && key != o.only) continue;
    const CorpusFile f = generate_corpus(mn, o.seed, o.cases);
    const std::string path = corpus_path(o.dir, key);
    if (!write_file(path, to_json(f))) {
      std::fprintf(stderr, "lvec: cannot write %s\n", path.c_str());
      return 2;
    }
    ++written;
  }
  if (written == 0) {
    std::fprintf(stderr, "lvec: no mnemonic matches --only %s\n",
                 o.only.c_str());
    return 2;
  }
  std::printf("lvec: wrote %d corpus files to %s\n", written, o.dir.c_str());
  return 0;
}

// ---- verify (drift gate) ------------------------------------------------

int cmd_verify(const Options& o) {
  if (o.dir.empty()) return usage();
  int drifted = 0;
  for (const isa::Mnemonic mn : corpus_mnemonics()) {
    const std::string key = corpus_key(mn);
    const std::string path = corpus_path(o.dir, key);
    std::string committed;
    if (!read_file(path, committed)) {
      std::fprintf(stderr, "lvec: missing corpus file %s\n", path.c_str());
      ++drifted;
      continue;
    }
    CorpusFile f;
    std::string err;
    if (!parse_corpus_file(committed, f, err)) {
      std::fprintf(stderr, "lvec: %s: %s\n", path.c_str(), err.c_str());
      ++drifted;
      continue;
    }
    const CorpusFile regen = generate_corpus(mn, f.seed, f.cases);
    const std::string fresh = to_json(regen);
    if (fresh != committed) {
      // Point at the first differing case for a usable report.
      std::string detail = "file bytes differ";
      const size_t n = std::min(f.vectors.size(), regen.vectors.size());
      for (size_t i = 0; i < n; ++i) {
        if (auto d = diff_vectors(regen.vectors[i], f.vectors[i]);
            !d.empty()) {
          detail = d;
          break;
        }
      }
      if (detail == "file bytes differ" &&
          f.vectors.size() != regen.vectors.size()) {
        detail = "case count " + std::to_string(regen.vectors.size()) +
                 " vs " + std::to_string(f.vectors.size());
      }
      std::fprintf(stderr, "lvec: drift in %s: %s\n", path.c_str(),
                   detail.c_str());
      ++drifted;
    }
  }
  if (drifted) {
    std::fprintf(stderr,
                 "lvec: %d corpus file(s) drifted — regenerate with "
                 "`lvec gen` and commit\n",
                 drifted);
    return 1;
  }
  std::printf("lvec: corpus matches its generator (no drift)\n");
  return 0;
}

// ---- replay -------------------------------------------------------------

// Resolve --leg / --legs into the leg set to run (all four by default).
int select_legs(const Options& o, std::vector<Leg>& out) {
  if (!o.leg.empty() && !o.legs.empty()) {
    std::fprintf(stderr, "lvec: --leg and --legs are mutually exclusive\n");
    return 2;
  }
  std::vector<std::string> names;
  if (!o.leg.empty()) names.push_back(o.leg);
  std::size_t pos = 0;
  while (pos < o.legs.size()) {
    const std::size_t comma = o.legs.find(',', pos);
    const std::size_t end = comma == std::string::npos ? o.legs.size() : comma;
    if (end > pos) names.push_back(o.legs.substr(pos, end - pos));
    pos = end + 1;
  }
  if (names.empty()) {
    out.assign(std::begin(kAllLegs), std::end(kAllLegs));
    return 0;
  }
  for (const std::string& name : names) {
    Leg l = Leg::kIu;
    if (!leg_from_name(name, l)) {
      std::fprintf(stderr, "lvec: unknown leg %s\n", name.c_str());
      return 2;
    }
    out.push_back(l);
  }
  return 0;
}

void replay_corpus(const CorpusFile& f, const Options& o,
                   const std::vector<Leg>& legs, int& ran, int& failed) {
  for (const TestVector& v : f.vectors) {
    if (!o.case_name.empty() && v.name != o.case_name) continue;
    ++ran;
    for (const Leg leg : legs) {
      if (const std::string d = replay_vector(v, leg); !d.empty()) {
        std::fprintf(stderr, "FAIL %s\n", d.c_str());
        ++failed;
        break;  // first failing leg's report wins, as replay_vector_all
      }
    }
  }
}

int cmd_replay(const Options& o) {
  if (o.dir.empty() == o.file.empty()) return usage();  // exactly one
  std::vector<Leg> legs;
  if (int rc = select_legs(o, legs)) return rc;
  int ran = 0, failed = 0;
  if (!o.file.empty()) {
    CorpusFile f;
    if (!load_corpus(o.file, f)) return 2;
    replay_corpus(f, o, legs, ran, failed);
  } else {
    for (const isa::Mnemonic mn : corpus_mnemonics()) {
      const std::string path = corpus_path(o.dir, corpus_key(mn));
      CorpusFile f;
      if (!load_corpus(path, f)) return 2;
      replay_corpus(f, o, legs, ran, failed);
    }
  }
  if (ran == 0) {
    std::fprintf(stderr, "lvec: no case matched\n");
    return 2;
  }
  std::printf("lvec: replayed %d case(s) on %zu leg(s), %d failure(s)\n",
              ran, legs.size(), failed);
  return failed ? 1 : 0;
}

// ---- coverage -----------------------------------------------------------

int cmd_coverage(const Options& o) {
  if (o.dir.empty()) return usage();
  int missing = 0, total = 0;
  for (const isa::Mnemonic mn : corpus_mnemonics()) {
    ++total;
    const std::string key = corpus_key(mn);
    CorpusFile f;
    std::string text;
    std::string err;
    const std::string path = corpus_path(o.dir, key);
    if (!read_file(path, text) || !parse_corpus_file(text, f, err) ||
        f.vectors.empty() || f.mnemonic != key) {
      std::fprintf(stderr, "lvec: mnemonic %s not covered (%s)\n", key.c_str(),
                   path.c_str());
      ++missing;
    }
  }
  if (missing) {
    std::fprintf(stderr, "lvec: %d of %d mnemonics uncovered\n", missing,
                 total);
    return 1;
  }
  std::printf("lvec: all %d mnemonics covered\n", total);
  return 0;
}

// ---- diff ---------------------------------------------------------------

int cmd_diff(const std::string& pa, const std::string& pb) {
  CorpusFile a, b;
  if (!load_corpus(pa, a) || !load_corpus(pb, b)) return 2;
  std::map<std::string, const TestVector*> bv;
  for (const TestVector& v : b.vectors) bv[v.name] = &v;
  int diffs = 0;
  std::set<std::string> seen;
  for (const TestVector& v : a.vectors) {
    seen.insert(v.name);
    const auto it = bv.find(v.name);
    if (it == bv.end()) {
      std::printf("only in %s: %s\n", pa.c_str(), v.name.c_str());
      ++diffs;
      continue;
    }
    if (auto d = diff_vectors(v, *it->second); !d.empty()) {
      std::printf("%s\n", d.c_str());
      ++diffs;
    }
  }
  for (const TestVector& v : b.vectors) {
    if (!seen.count(v.name)) {
      std::printf("only in %s: %s\n", pb.c_str(), v.name.c_str());
      ++diffs;
    }
  }
  if (diffs) {
    std::printf("lvec: %d difference(s)\n", diffs);
    return 1;
  }
  std::printf("lvec: corpora identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "diff") {
    if (argc != 4) return usage();
    return cmd_diff(argv[2], argv[3]);
  }
  Options o;
  if (!parse_options(argc, argv, 2, o)) return usage();
  if (cmd == "gen") return cmd_gen(o);
  if (cmd == "verify") return cmd_verify(o);
  if (cmd == "replay") return cmd_replay(o);
  if (cmd == "coverage") return cmd_coverage(o);
  return usage();
}
