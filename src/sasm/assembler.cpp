#include "sasm/assembler.hpp"

#include <cassert>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "isa/encode.hpp"
#include "isa/isa.hpp"
#include "sasm/lexer.hpp"

namespace la::sasm {

using isa::Cond;
using isa::Mnemonic;

namespace {

/// A parse/encode failure inside one statement.
struct StmtError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& what) { throw StmtError(what); }

std::optional<Cond> cond_from_suffix(std::string_view s) {
  if (s.empty() || s == "a") return Cond::kA;  // "b" and "ba"
  if (s == "n") return Cond::kN;
  if (s == "ne" || s == "nz") return Cond::kNe;
  if (s == "e" || s == "z" || s == "eq") return Cond::kE;
  if (s == "g" || s == "gt") return Cond::kG;
  if (s == "le") return Cond::kLe;
  if (s == "ge") return Cond::kGe;
  if (s == "l" || s == "lt") return Cond::kL;
  if (s == "gu") return Cond::kGu;
  if (s == "leu") return Cond::kLeu;
  if (s == "cc" || s == "geu") return Cond::kCc;
  if (s == "cs" || s == "lu") return Cond::kCs;
  if (s == "pos") return Cond::kPos;
  if (s == "neg") return Cond::kNeg;
  if (s == "vc") return Cond::kVc;
  if (s == "vs") return Cond::kVs;
  return std::nullopt;
}

/// Name -> mnemonic over the LA_SPARC_OPS rows whose flags under `mask`
/// equal `want`.  The FP and coprocessor memory ops (op3 bit 5) have no
/// syntax here.
std::map<std::string_view, Mnemonic> rows_where(u8 mask, u8 want) {
  std::map<std::string_view, Mnemonic> m;
  for (std::size_t i = 0; i < std::size(isa::kOps); ++i) {
    const isa::OpInfo& r = isa::kOps[i];
    if ((r.flags & mask) == want && !(r.op == 3 && (r.op3 & 0x20))) {
      m.emplace(r.text, static_cast<Mnemonic>(i));
    }
  }
  return m;
}

/// Three-operand register/imm instructions: `op rs1, reg_or_imm, rd`.
const auto kArith3 = rows_where(isa::kAlu3, isa::kAlu3);
/// Loads and atomics: `op [addr] asi, rd`.
const auto kLoads = rows_where(isa::kLoad, isa::kLoad);
/// Stores: `op rd, [addr] asi`.
const auto kStores = rows_where(isa::kLoad | isa::kStore, isa::kStore);

}  // namespace

/// Assembler implementation: pass 1 sizes statements and collects labels;
/// pass 2 re-parses each statement with the full symbol table and emits.
class AssemblerImpl {
 public:
  AsmResult run(std::string_view source) {
    split_statements(source);

    // ---- Pass 1: sizes & labels ----
    pass_ = 1;
    Addr loc = 0;
    bool org_seen = false;
    for (auto& st : stmts_) {
      loc_ = loc;
      try {
        st.addr = loc;
        st.size = statement_size(st);
        if (st.is_org) {
          loc = st.org_value;
          if (!org_seen || loc < base_) base_ = loc;
          org_seen = true;
          st.addr = loc;
        } else {
          if (!org_seen && st.size > 0) {
            base_ = loc;
            org_seen = true;
          }
          st.addr = loc;
          define_pending_labels(st, loc);
          loc += st.size;
        }
        if (st.is_org) define_pending_labels(st, loc);
      } catch (const StmtError& e) {
        error(st.line, e.what());
        st.broken = true;
      }
    }
    if (!org_seen) base_ = 0;

    // ---- Pass 2: encode & emit ----
    if (errors_.empty()) {
      pass_ = 2;
      for (auto& st : stmts_) {
        if (st.broken) continue;
        loc_ = st.addr;
        try {
          emit_statement(st);
        } catch (const StmtError& e) {
          error(st.line, e.what());
        }
      }
    }

    AsmResult res;
    res.errors = std::move(errors_);
    res.ok = res.errors.empty();
    if (res.ok) {
      res.image.base = base_;
      res.image.data = std::move(out_);
      res.image.symbols.insert(symbols_.begin(), symbols_.end());
      const auto it = symbols_.find("_start");
      res.image.entry = (it != symbols_.end()) ? it->second : base_;
    }
    return res;
  }

 private:
  struct Stmt {
    unsigned line = 1;
    std::vector<Token> toks;
    std::vector<std::string> labels;  // labels defined at this statement
    Addr addr = 0;
    u32 size = 0;
    bool is_org = false;
    u32 org_value = 0;
    bool broken = false;
  };

  // ---- Statement splitting -----------------------------------------------

  void split_statements(std::string_view source) {
    unsigned line_no = 1;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      const std::size_t nl = source.find('\n', pos);
      std::string_view line = source.substr(
          pos, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - pos);
      // Split on ';' outside comments/strings (good enough: stop at ! / #).
      std::size_t start = 0;
      bool in_str = false;
      bool in_comment = false;
      for (std::size_t i = 0; i <= line.size(); ++i) {
        const bool end = i == line.size();
        if (!end) {
          const char c = line[i];
          if (c == '"' && !in_comment) in_str = !in_str;
          if ((c == '!' || c == '#') && !in_str) in_comment = true;
        }
        if (end || (line[i] == ';' && !in_str && !in_comment)) {
          add_statement(line.substr(start, i - start), line_no);
          start = i + 1;
        }
      }
      if (nl == std::string_view::npos) break;
      pos = nl + 1;
      ++line_no;
    }
  }

  void add_statement(std::string_view text, unsigned line_no) {
    Stmt st;
    st.line = line_no;
    try {
      st.toks = tokenize(text);
    } catch (const std::exception& e) {
      error(line_no, e.what());
      return;
    }
    // Peel leading labels: IDENT ':'
    std::size_t k = 0;
    while (k + 1 < st.toks.size() && st.toks[k].kind == TokKind::kIdent &&
           st.toks[k + 1].kind == TokKind::kPunct &&
           st.toks[k + 1].text == ":") {
      st.labels.push_back(st.toks[k].text);
      k += 2;
    }
    st.toks.erase(st.toks.begin(),
                  st.toks.begin() + static_cast<std::ptrdiff_t>(k));
    if (st.toks.size() == 1 && st.labels.empty()) return;  // blank
    stmts_.push_back(std::move(st));
  }

  void define_pending_labels(const Stmt& st, Addr at) {
    for (const auto& l : st.labels) {
      if (symbols_.count(l)) {
        fail("label '" + l + "' redefined");
      }
      symbols_[l] = at;
    }
  }

  // ---- Token cursor -------------------------------------------------------

  const Token& peek() const { return cur_->toks[ti_]; }
  const Token& next() { return cur_->toks[ti_++]; }
  bool at_end() const { return peek().kind == TokKind::kEnd; }

  bool accept_punct(char c) {
    if (peek().kind == TokKind::kPunct && peek().text[0] == c) {
      ++ti_;
      return true;
    }
    return false;
  }
  void expect_punct(char c) {
    if (!accept_punct(c)) {
      fail(std::string("expected '") + c + "', got '" + peek().text + "'");
    }
  }
  void expect_end() {
    if (!at_end()) fail("trailing tokens: '" + peek().text + "'");
  }
  u8 expect_reg() {
    if (peek().kind != TokKind::kReg) {
      fail("expected register, got '" + peek().text + "'");
    }
    return static_cast<u8>(next().value);
  }
  std::string expect_ident() {
    if (peek().kind != TokKind::kIdent) {
      fail("expected identifier, got '" + peek().text + "'");
    }
    return next().text;
  }

  // ---- Expressions --------------------------------------------------------

  u32 sym_value(const std::string& name) {
    if (name == ".") return loc_;
    const auto it = symbols_.find(name);
    if (it == symbols_.end()) {
      if (pass_ == 1) {
        fail("symbol '" + name +
             "' must be defined before use in this context");
      }
      fail("undefined symbol '" + name + "'");
    }
    return it->second;
  }

  u32 parse_expr() { return parse_sum(); }

  u32 parse_sum() {
    u32 v = parse_term();
    while (true) {
      if (accept_punct('+')) v += parse_term();
      else if (accept_punct('-')) v -= parse_term();
      else return v;
    }
  }

  u32 parse_term() {
    u32 v = parse_factor();
    while (true) {
      if (accept_punct('*')) v *= parse_factor();
      else if (accept_punct('/')) {
        const u32 d = parse_factor();
        if (d == 0) fail("division by zero in expression");
        v /= d;
      } else {
        return v;
      }
    }
  }

  u32 parse_factor() {
    if (accept_punct('-')) return 0u - parse_factor();
    if (accept_punct('+')) return parse_factor();
    if (accept_punct('(')) {
      const u32 v = parse_sum();
      expect_punct(')');
      return v;
    }
    if (peek().kind == TokKind::kInt) return next().value;
    if (peek().kind == TokKind::kHiLo) {
      const bool hi = next().text == "hi";
      expect_punct('(');
      const u32 v = parse_sum();
      expect_punct(')');
      return hi ? (v >> 10) : (v & 0x3ffu);
    }
    if (peek().kind == TokKind::kIdent) return sym_value(next().text);
    fail("expected expression, got '" + peek().text + "'");
  }

  // Lookahead: does an expression start here (vs a register)?
  bool expr_ahead() const {
    switch (peek().kind) {
      case TokKind::kInt:
      case TokKind::kIdent:
      case TokKind::kHiLo:
        return true;
      case TokKind::kPunct: {
        const char c = peek().text[0];
        return c == '-' || c == '+' || c == '(';
      }
      default:
        return false;
    }
  }

  i32 parse_simm13() {
    const u32 v = parse_expr();
    const i32 s = static_cast<i32>(v);
    if (s < -4096 || s > 4095) {
      // %hi/%lo produce small positives; anything else must fit simm13.
      fail("immediate " + std::to_string(s) + " does not fit in simm13");
    }
    return s;
  }

  // reg_or_imm: either a register (imm=false) or simm13 expression.
  struct Op2 {
    bool imm = false;
    u8 rs2 = 0;
    i32 simm13 = 0;
  };

  Op2 parse_op2() {
    Op2 o;
    if (peek().kind == TokKind::kReg) {
      o.rs2 = expect_reg();
    } else {
      o.imm = true;
      o.simm13 = parse_simm13();
    }
    return o;
  }

  // Address operand without brackets: `reg`, `reg + reg`, `reg +/- imm`,
  // or a bare expression (encoded as %g0 + simm13).
  struct AddrOp {
    u8 rs1 = 0;
    Op2 op2;
  };

  AddrOp parse_addr_body() {
    AddrOp a;
    if (peek().kind == TokKind::kReg) {
      a.rs1 = expect_reg();
      if (accept_punct('+')) {
        if (peek().kind == TokKind::kReg) {
          a.op2.rs2 = expect_reg();
        } else {
          a.op2.imm = true;
          a.op2.simm13 = parse_simm13();
        }
      } else if (accept_punct('-')) {
        a.op2.imm = true;
        const i32 v = parse_simm13();
        if (-v < -4096) fail("negated offset does not fit in simm13");
        a.op2.simm13 = -v;
      } else {
        // Bare register: encode as reg + %g0 (not imm 0) — both are
        // architecturally identical; pick the register form like gas.
        a.op2.imm = false;
        a.op2.rs2 = 0;
      }
    } else {
      a.rs1 = 0;  // %g0
      a.op2.imm = true;
      a.op2.simm13 = parse_simm13();
    }
    return a;
  }

  AddrOp parse_bracket_addr() {
    expect_punct('[');
    AddrOp a = parse_addr_body();
    expect_punct(']');
    return a;
  }

  // ---- Emission -----------------------------------------------------------

  // A runaway .org/.skip would otherwise materialize a multi-gigabyte
  // gap-filled image; 64 MiB comfortably covers every real target.
  static constexpr u64 kMaxImageBytes = 64u << 20;

  void put_byte_at(Addr addr, u8 v) {
    if (addr < base_) fail("emission below image base (internal)");
    const std::size_t off = addr - base_;
    if (off >= kMaxImageBytes) {
      fail("image span exceeds " + std::to_string(kMaxImageBytes >> 20) +
           " MiB (runaway .org/.skip?)");
    }
    if (off >= out_.size()) out_.resize(off + 1, 0);
    out_[off] = v;
  }

  void emit_word(u32 w) {
    put_byte_at(loc_, static_cast<u8>(w >> 24));
    put_byte_at(loc_ + 1, static_cast<u8>(w >> 16));
    put_byte_at(loc_ + 2, static_cast<u8>(w >> 8));
    put_byte_at(loc_ + 3, static_cast<u8>(w));
    loc_ += 4;
  }

  void emit_half(u16 h) {
    put_byte_at(loc_, static_cast<u8>(h >> 8));
    put_byte_at(loc_ + 1, static_cast<u8>(h));
    loc_ += 2;
  }

  void emit_byte(u8 b) {
    put_byte_at(loc_, b);
    loc_ += 1;
  }

  /// Bulk fill for .skip/.align (a byte-at-a-time loop is quadratic-ish
  /// for large regions).
  void emit_fill(u32 n, u8 fill) {
    if (n == 0) return;
    put_byte_at(loc_ + n - 1, fill);  // bounds-check + single resize
    std::fill(out_.begin() + static_cast<std::ptrdiff_t>(loc_ - base_),
              out_.begin() + static_cast<std::ptrdiff_t>(loc_ - base_ + n),
              fill);
    loc_ += n;
  }

  // ---- Pass 1: statement size --------------------------------------------

  u32 statement_size(Stmt& st) {
    cur_ = &st;
    ti_ = 0;
    if (at_end()) return 0;

    if (peek().kind != TokKind::kIdent) {
      fail("expected directive or mnemonic, got '" + peek().text + "'");
    }
    const std::string head = peek().text;

    // name = expr
    if (cur_->toks.size() > 1 && cur_->toks[1].kind == TokKind::kPunct &&
        cur_->toks[1].text == "=") {
      next();  // name
      next();  // '='
      const u32 v = parse_expr();
      expect_end();
      if (symbols_.count(head)) fail("symbol '" + head + "' redefined");
      symbols_[head] = v;
      return 0;
    }

    if (head[0] == '.') {
      next();
      return directive_size(head);
    }

    next();
    // `set` expands to sethi + or: always 8 bytes for deterministic sizing.
    if (head == "set") return 8;
    return 4;  // every real instruction is one word
  }

  u32 directive_size(const std::string& d) {
    if (d == ".org") {
      cur_->is_org = true;
      cur_->org_value = parse_expr();
      expect_end();
      return 0;
    }
    if (d == ".align") {
      const u32 a = parse_expr();
      expect_end();
      if (!is_pow2(a)) fail(".align requires a power of two");
      const Addr aligned = static_cast<Addr>(align_up(loc_, a));
      return aligned - loc_;
    }
    if (d == ".word") return 4 * count_expr_list();
    if (d == ".half" || d == ".short") return 2 * count_expr_list();
    if (d == ".byte") return count_expr_list();
    if (d == ".ascii" || d == ".asciz") {
      if (peek().kind != TokKind::kString) fail(d + " expects a string");
      const u32 n = static_cast<u32>(next().text.size());
      expect_end();
      return n + (d == ".asciz" ? 1 : 0);
    }
    if (d == ".skip" || d == ".space") {
      const u32 n = parse_expr();
      if (accept_punct(',')) parse_expr();
      expect_end();
      return n;
    }
    if (d == ".equ" || d == ".set") {
      const std::string name = expect_ident();
      expect_punct(',');
      const u32 v = parse_expr();
      expect_end();
      if (symbols_.count(name)) fail("symbol '" + name + "' redefined");
      symbols_[name] = v;
      return 0;
    }
    if (d == ".global" || d == ".globl") {
      expect_ident();
      expect_end();
      return 0;
    }
    if (d == ".text" || d == ".data" || d == ".section") {
      // Single flat image: section switching is accepted and ignored.
      while (!at_end()) next();
      return 0;
    }
    fail("unknown directive '" + d + "'");
  }

  /// Count a comma-separated expression list without evaluating symbols
  /// (forward references are fine for data words).
  u32 count_expr_list() {
    u32 n = 1;
    int depth = 0;
    while (!at_end()) {
      const Token& t = next();
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++depth;
        else if (t.text == ")") --depth;
        else if (t.text == "," && depth == 0) ++n;
      }
    }
    return n;
  }

  // ---- Pass 2: emit -------------------------------------------------------

  void emit_statement(Stmt& st) {
    cur_ = &st;
    ti_ = 0;
    loc_ = st.addr;
    if (at_end()) return;

    const std::string head = peek().text;

    if (cur_->toks.size() > 1 && cur_->toks[1].kind == TokKind::kPunct &&
        cur_->toks[1].text == "=") {
      return;  // handled in pass 1
    }
    if (head[0] == '.') {
      next();
      emit_directive(head, st);
      return;
    }
    next();
    emit_instruction(head, st);
    expect_end();
  }

  void emit_directive(const std::string& d, const Stmt& st) {
    if (d == ".org" || d == ".equ" || d == ".set" || d == ".global" ||
        d == ".globl" || d == ".text" || d == ".data" || d == ".section") {
      return;  // no bytes
    }
    if (d == ".align") {
      emit_fill(st.size, 0);
      return;
    }
    if (d == ".word") {
      do { emit_word(parse_expr()); } while (accept_punct(','));
      expect_end();
      return;
    }
    if (d == ".half" || d == ".short") {
      do {
        const u32 v = parse_expr();
        if (v > 0xffff && v < 0xffff8000u) fail(".half value out of range");
        emit_half(static_cast<u16>(v));
      } while (accept_punct(','));
      expect_end();
      return;
    }
    if (d == ".byte") {
      do {
        const u32 v = parse_expr();
        if (v > 0xff && v < 0xffffff80u) fail(".byte value out of range");
        emit_byte(static_cast<u8>(v));
      } while (accept_punct(','));
      expect_end();
      return;
    }
    if (d == ".ascii" || d == ".asciz") {
      const std::string s = next().text;
      for (char c : s) emit_byte(static_cast<u8>(c));
      if (d == ".asciz") emit_byte(0);
      expect_end();
      return;
    }
    if (d == ".skip" || d == ".space") {
      const u32 n = parse_expr();
      u32 fill = 0;
      if (accept_punct(',')) fill = parse_expr();
      emit_fill(n, static_cast<u8>(fill));
      expect_end();
      return;
    }
    fail("unknown directive '" + d + "'");
  }

  // Branch / call target -> word displacement from the current statement.
  // Displacements are PC-relative modulo 2^32 (the hardware adds disp*4
  // with wraparound), so a 30-bit call reaches every word in the address
  // space; only the 22-bit branch forms can be out of range.
  i32 branch_disp(u32 target, unsigned bits_avail) {
    if (target & 3u) fail("branch target is not word-aligned");
    const i32 words = static_cast<i32>(target - loc_) >> 2;
    if (bits_avail < 30) {
      const i32 lim = i32{1} << (bits_avail - 1);
      if (words < -lim || words >= lim) fail("branch target out of range");
    }
    return words;
  }

  u32 enc_arith(Mnemonic m, u8 rd, u8 rs1, const Op2& o) {
    return o.imm ? isa::encode_arith_ri(m, rd, rs1, o.simm13)
                 : isa::encode_arith_rr(m, rd, rs1, o.rs2);
  }

  void emit_instruction(const std::string& name, const Stmt&) {
    // --- three-operand ALU group ---
    if (const auto it = kArith3.find(name); it != kArith3.end()) {
      // Bare `save` / `restore` (no operands).
      if ((it->second == Mnemonic::kSave ||
           it->second == Mnemonic::kRestore) &&
          at_end()) {
        emit_word(isa::encode_arith_rr(it->second, 0, 0, 0));
        return;
      }
      const u8 rs1 = expect_reg();
      expect_punct(',');
      const Op2 o = parse_op2();
      expect_punct(',');
      const u8 rd = expect_reg();
      emit_word(enc_arith(it->second, rd, rs1, o));
      return;
    }

    // --- loads & atomics ---
    if (const auto it = kLoads.find(name); it != kLoads.end()) {
      const AddrOp a = parse_bracket_addr();
      u8 asi = 0;
      if (isa::is_alternate_space(it->second)) {
        if (a.op2.imm) fail("alternate-space ops need register+register");
        asi = static_cast<u8>(parse_expr());
      }
      expect_punct(',');
      const u8 rd = expect_reg();
      if (a.op2.imm) {
        emit_word(isa::encode_mem_ri(it->second, rd, a.rs1, a.op2.simm13));
      } else {
        emit_word(isa::encode_mem_rr(it->second, rd, a.rs1, a.op2.rs2, asi));
      }
      return;
    }

    // --- stores ---
    if (const auto it = kStores.find(name); it != kStores.end()) {
      const u8 rd = expect_reg();
      expect_punct(',');
      const AddrOp a = parse_bracket_addr();
      u8 asi = 0;
      if (isa::is_alternate_space(it->second)) {
        if (a.op2.imm) fail("alternate-space ops need register+register");
        asi = static_cast<u8>(parse_expr());
      }
      if (a.op2.imm) {
        emit_word(isa::encode_mem_ri(it->second, rd, a.rs1, a.op2.simm13));
      } else {
        emit_word(isa::encode_mem_rr(it->second, rd, a.rs1, a.op2.rs2, asi));
      }
      return;
    }

    // --- branches: b<cond>[,a] target ---
    if (name.size() >= 1 && name[0] == 'b') {
      if (const auto c = cond_from_suffix(std::string_view(name).substr(1))) {
        bool annul = false;
        if (accept_punct(',')) {
          const std::string a = expect_ident();
          if (a != "a") fail("expected ',a' annul suffix");
          annul = true;
        }
        const u32 target = parse_expr();
        emit_word(isa::encode_branch(*c, annul, branch_disp(target, 22)));
        return;
      }
    }

    // --- trap-on-condition: t<cond> number | reg | reg + operand ---
    if (name.size() >= 2 && name[0] == 't') {
      if (const auto c = cond_from_suffix(std::string_view(name).substr(1))) {
        const AddrOp a = parse_addr_body();
        if (a.op2.imm && a.rs1 == 0 &&
            (a.op2.simm13 < 0 || a.op2.simm13 > 127)) {
          fail("software trap number must be 0..127");
        }
        isa::Instruction ins;
        ins.mn = Mnemonic::kTicc;
        ins.cond = *c;
        ins.rs1 = a.rs1;
        ins.imm = a.op2.imm;
        ins.simm13 = a.op2.simm13 & 0x7f;
        ins.rs2 = a.op2.rs2;
        emit_word(isa::encode(ins));
        return;
      }
    }

    // --- everything else ---
    if (name == "call") {
      const u32 target = parse_expr();
      emit_word(isa::encode_call(branch_disp(target, 30)));
      return;
    }
    if (name == "jmp") {
      const AddrOp a = parse_addr_body();
      emit_word(a.op2.imm
                    ? isa::encode_arith_ri(Mnemonic::kJmpl, 0, a.rs1,
                                           a.op2.simm13)
                    : isa::encode_arith_rr(Mnemonic::kJmpl, 0, a.rs1,
                                           a.op2.rs2));
      return;
    }
    if (name == "jmpl") {
      const AddrOp a = parse_addr_body();
      expect_punct(',');
      const u8 rd = expect_reg();
      emit_word(a.op2.imm
                    ? isa::encode_arith_ri(Mnemonic::kJmpl, rd, a.rs1,
                                           a.op2.simm13)
                    : isa::encode_arith_rr(Mnemonic::kJmpl, rd, a.rs1,
                                           a.op2.rs2));
      return;
    }
    if (name == "ret") {  // jmpl %i7 + 8, %g0
      emit_word(isa::encode_arith_ri(Mnemonic::kJmpl, 0, 31, 8));
      return;
    }
    if (name == "retl") {  // jmpl %o7 + 8, %g0
      emit_word(isa::encode_arith_ri(Mnemonic::kJmpl, 0, 15, 8));
      return;
    }
    if (name == "rett") {
      const AddrOp a = parse_addr_body();
      emit_word(a.op2.imm
                    ? isa::encode_arith_ri(Mnemonic::kRett, 0, a.rs1,
                                           a.op2.simm13)
                    : isa::encode_arith_rr(Mnemonic::kRett, 0, a.rs1,
                                           a.op2.rs2));
      return;
    }
    if (name == "flush") {
      const AddrOp a = (peek().kind == TokKind::kPunct &&
                        peek().text == "[")
                           ? parse_bracket_addr()
                           : parse_addr_body();
      emit_word(a.op2.imm
                    ? isa::encode_arith_ri(Mnemonic::kFlush, 0, a.rs1,
                                           a.op2.simm13)
                    : isa::encode_arith_rr(Mnemonic::kFlush, 0, a.rs1,
                                           a.op2.rs2));
      return;
    }
    if (name == "sethi") {
      u32 imm22;
      if (peek().kind == TokKind::kHiLo) {
        if (peek().text != "hi") fail("sethi expects %hi(...)");
        next();
        expect_punct('(');
        imm22 = parse_sum() >> 10;
        expect_punct(')');
      } else {
        imm22 = parse_expr();
        if (imm22 > 0x3fffff) fail("sethi constant exceeds 22 bits");
      }
      expect_punct(',');
      const u8 rd = expect_reg();
      emit_word(isa::encode_sethi(rd, imm22));
      return;
    }
    if (name == "rd") {
      if (peek().kind != TokKind::kSpecial) {
        fail("rd expects %y/%psr/%wim/%tbr/%asrN");
      }
      const Token sp = next();
      expect_punct(',');
      const u8 rd = expect_reg();
      if (sp.text == "y") {
        emit_word(isa::encode_arith_rr(Mnemonic::kRdy, rd, 0, 0));
      } else if (sp.text == "psr") {
        emit_word(isa::encode_arith_rr(Mnemonic::kRdpsr, rd, 0, 0));
      } else if (sp.text == "wim") {
        emit_word(isa::encode_arith_rr(Mnemonic::kRdwim, rd, 0, 0));
      } else if (sp.text == "tbr") {
        emit_word(isa::encode_arith_rr(Mnemonic::kRdtbr, rd, 0, 0));
      } else if (sp.text == "asr") {
        emit_word(isa::encode_arith_rr(Mnemonic::kRdasr, rd,
                                       static_cast<u8>(sp.value), 0));
      } else {
        fail("cannot rd from %" + sp.text);
      }
      return;
    }
    if (name == "wr") {
      const u8 rs1 = expect_reg();
      expect_punct(',');
      // Either `wr rs1, %y` or `wr rs1, op2, %y`.
      Op2 o;
      if (peek().kind != TokKind::kSpecial) {
        o = parse_op2();
        expect_punct(',');
      }
      if (peek().kind != TokKind::kSpecial) {
        fail("wr expects a special register destination");
      }
      const Token sp = next();
      Mnemonic m;
      u8 rd = 0;
      if (sp.text == "y") m = Mnemonic::kWry;
      else if (sp.text == "psr") m = Mnemonic::kWrpsr;
      else if (sp.text == "wim") m = Mnemonic::kWrwim;
      else if (sp.text == "tbr") m = Mnemonic::kWrtbr;
      else if (sp.text == "asr") { m = Mnemonic::kWrasr; rd = static_cast<u8>(sp.value); }
      else fail("cannot wr to %" + sp.text);
      emit_word(o.imm ? isa::encode_arith_ri(m, rd, rs1, o.simm13)
                      : isa::encode_arith_rr(m, rd, rs1, o.rs2));
      return;
    }
    if (name == "unimp") {
      u32 v = 0;
      if (!at_end()) v = parse_expr();
      if (v > 0x3fffff) fail("unimp constant exceeds 22 bits");
      emit_word(v);
      return;
    }

    // --- synthetic instructions ---
    if (name == "nop") {
      emit_word(isa::encode_nop());
      return;
    }
    if (name == "set") {
      const u32 v = parse_expr();
      expect_punct(',');
      const u8 rd = expect_reg();
      // Deterministic two-word expansion: sethi %hi(v) ; or rd, %lo(v).
      emit_word(isa::encode_sethi(rd, v >> 10));
      emit_word(isa::encode_arith_ri(Mnemonic::kOr, rd, rd,
                                     static_cast<i32>(v & 0x3ffu)));
      return;
    }
    if (name == "mov") {
      // mov reg_or_imm, rd  ->  or %g0, op2, rd
      const Op2 o = parse_op2();
      expect_punct(',');
      const u8 rd = expect_reg();
      emit_word(enc_arith(Mnemonic::kOr, rd, 0, o));
      return;
    }
    if (name == "cmp") {  // subcc rs1, op2, %g0
      const u8 rs1 = expect_reg();
      expect_punct(',');
      const Op2 o = parse_op2();
      emit_word(enc_arith(Mnemonic::kSubcc, 0, rs1, o));
      return;
    }
    if (name == "tst") {  // orcc %g0, rs1, %g0
      const u8 rs1 = expect_reg();
      emit_word(isa::encode_arith_rr(Mnemonic::kOrcc, 0, 0, rs1));
      return;
    }
    if (name == "clr") {  // or %g0, %g0, rd
      const u8 rd = expect_reg();
      emit_word(isa::encode_arith_rr(Mnemonic::kOr, rd, 0, 0));
      return;
    }
    if (name == "inc" || name == "dec") {
      // inc rd | inc imm, rd
      i32 amount = 1;
      if (peek().kind != TokKind::kReg) {
        amount = parse_simm13();
        expect_punct(',');
      }
      const u8 rd = expect_reg();
      const Mnemonic m = (name == "inc") ? Mnemonic::kAdd : Mnemonic::kSub;
      emit_word(isa::encode_arith_ri(m, rd, rd, amount));
      return;
    }
    if (name == "not") {
      // not rs1, rd | not rd   ->  xnor rs1, %g0, rd
      const u8 r1 = expect_reg();
      u8 rd = r1;
      if (accept_punct(',')) rd = expect_reg();
      emit_word(isa::encode_arith_rr(Mnemonic::kXnor, rd, r1, 0));
      return;
    }
    if (name == "neg") {
      // neg rs2, rd | neg rd  ->  sub %g0, rs2, rd
      const u8 r1 = expect_reg();
      u8 rd = r1;
      if (accept_punct(',')) rd = expect_reg();
      emit_word(isa::encode_arith_rr(Mnemonic::kSub, rd, 0, r1));
      return;
    }
    if (name == "btst") {  // btst op2, rs1  ->  andcc rs1, op2, %g0
      const Op2 o = parse_op2();
      expect_punct(',');
      const u8 rs1 = expect_reg();
      emit_word(enc_arith(Mnemonic::kAndcc, 0, rs1, o));
      return;
    }
    if (name == "bset" || name == "bclr" || name == "btog") {
      const Op2 o = parse_op2();
      expect_punct(',');
      const u8 rd = expect_reg();
      const Mnemonic m = (name == "bset")   ? Mnemonic::kOr
                         : (name == "bclr") ? Mnemonic::kAndn
                                            : Mnemonic::kXor;
      emit_word(enc_arith(m, rd, rd, o));
      return;
    }

    fail("unknown mnemonic '" + name + "'");
  }

  void error(unsigned line, const std::string& msg) {
    errors_.push_back({line, msg});
  }

  // State ------------------------------------------------------------------
  std::vector<Stmt> stmts_;
  std::map<std::string, u32, std::less<>> symbols_;
  std::vector<Diagnostic> errors_;
  Bytes out_;
  Addr base_ = 0xffffffff;
  Addr loc_ = 0;
  int pass_ = 1;
  Stmt* cur_ = nullptr;
  std::size_t ti_ = 0;
};

AsmResult Assembler::assemble(std::string_view source) {
  AssemblerImpl impl;
  return impl.run(source);
}

Image assemble_or_throw(std::string_view source) {
  Assembler as;
  AsmResult r = as.assemble(source);
  if (!r.ok) {
    throw std::runtime_error("assembly failed:\n" + r.error_text());
  }
  return std::move(r.image);
}

}  // namespace la::sasm
