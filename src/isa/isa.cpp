#include "isa/isa.hpp"

namespace la::isa {

bool is_load(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLd: case Mnemonic::kLdub: case Mnemonic::kLduh:
    case Mnemonic::kLdd: case Mnemonic::kLdsb: case Mnemonic::kLdsh:
    case Mnemonic::kLda: case Mnemonic::kLduba: case Mnemonic::kLduha:
    case Mnemonic::kLdda: case Mnemonic::kLdsba: case Mnemonic::kLdsha:
    case Mnemonic::kLdstub: case Mnemonic::kLdstuba:
    case Mnemonic::kSwap: case Mnemonic::kSwapa:
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
      return true;
    default:
      return false;
  }
}

bool is_store(Mnemonic m) {
  switch (m) {
    case Mnemonic::kSt: case Mnemonic::kStb: case Mnemonic::kSth:
    case Mnemonic::kStd:
    case Mnemonic::kSta: case Mnemonic::kStba: case Mnemonic::kStha:
    case Mnemonic::kStda:
    case Mnemonic::kLdstub: case Mnemonic::kLdstuba:
    case Mnemonic::kSwap: case Mnemonic::kSwapa:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      return true;
    default:
      return false;
  }
}

bool is_alternate_space(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLda: case Mnemonic::kLduba: case Mnemonic::kLduha:
    case Mnemonic::kLdda: case Mnemonic::kLdsba: case Mnemonic::kLdsha:
    case Mnemonic::kSta: case Mnemonic::kStba: case Mnemonic::kStha:
    case Mnemonic::kStda: case Mnemonic::kLdstuba: case Mnemonic::kSwapa:
      return true;
    default:
      return false;
  }
}

unsigned access_size(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLdub: case Mnemonic::kLdsb: case Mnemonic::kStb:
    case Mnemonic::kLduba: case Mnemonic::kLdsba: case Mnemonic::kStba:
    case Mnemonic::kLdstub: case Mnemonic::kLdstuba:
      return 1;
    case Mnemonic::kLduh: case Mnemonic::kLdsh: case Mnemonic::kSth:
    case Mnemonic::kLduha: case Mnemonic::kLdsha: case Mnemonic::kStha:
      return 2;
    case Mnemonic::kLdd: case Mnemonic::kStd:
    case Mnemonic::kLdda: case Mnemonic::kStda:
    case Mnemonic::kLddf: case Mnemonic::kStdf:
    case Mnemonic::kLddc: case Mnemonic::kStdc:
    case Mnemonic::kStdfq: case Mnemonic::kStdcq:
      return 8;
    default:
      return 4;
  }
}

std::string_view mnemonic_name(Mnemonic m) {
  switch (m) {
    case Mnemonic::kInvalid: return "<invalid>";
    case Mnemonic::kCall: return "call";
    case Mnemonic::kUnimp: return "unimp";
    case Mnemonic::kSethi: return "sethi";
    case Mnemonic::kBicc: return "b";
    case Mnemonic::kFbfcc: return "fb";
    case Mnemonic::kCbccc: return "cb";
    case Mnemonic::kAnd: return "and";
    case Mnemonic::kAndcc: return "andcc";
    case Mnemonic::kAndn: return "andn";
    case Mnemonic::kAndncc: return "andncc";
    case Mnemonic::kOr: return "or";
    case Mnemonic::kOrcc: return "orcc";
    case Mnemonic::kOrn: return "orn";
    case Mnemonic::kOrncc: return "orncc";
    case Mnemonic::kXor: return "xor";
    case Mnemonic::kXorcc: return "xorcc";
    case Mnemonic::kXnor: return "xnor";
    case Mnemonic::kXnorcc: return "xnorcc";
    case Mnemonic::kSll: return "sll";
    case Mnemonic::kSrl: return "srl";
    case Mnemonic::kSra: return "sra";
    case Mnemonic::kAdd: return "add";
    case Mnemonic::kAddcc: return "addcc";
    case Mnemonic::kAddx: return "addx";
    case Mnemonic::kAddxcc: return "addxcc";
    case Mnemonic::kSub: return "sub";
    case Mnemonic::kSubcc: return "subcc";
    case Mnemonic::kSubx: return "subx";
    case Mnemonic::kSubxcc: return "subxcc";
    case Mnemonic::kTaddcc: return "taddcc";
    case Mnemonic::kTaddcctv: return "taddcctv";
    case Mnemonic::kTsubcc: return "tsubcc";
    case Mnemonic::kTsubcctv: return "tsubcctv";
    case Mnemonic::kMulscc: return "mulscc";
    case Mnemonic::kUmul: return "umul";
    case Mnemonic::kUmulcc: return "umulcc";
    case Mnemonic::kSmul: return "smul";
    case Mnemonic::kSmulcc: return "smulcc";
    case Mnemonic::kUdiv: return "udiv";
    case Mnemonic::kUdivcc: return "udivcc";
    case Mnemonic::kSdiv: return "sdiv";
    case Mnemonic::kSdivcc: return "sdivcc";
    case Mnemonic::kRdy: return "rd";
    case Mnemonic::kRdasr: return "rd";
    case Mnemonic::kRdpsr: return "rd";
    case Mnemonic::kRdwim: return "rd";
    case Mnemonic::kRdtbr: return "rd";
    case Mnemonic::kWry: return "wr";
    case Mnemonic::kWrasr: return "wr";
    case Mnemonic::kWrpsr: return "wr";
    case Mnemonic::kWrwim: return "wr";
    case Mnemonic::kWrtbr: return "wr";
    case Mnemonic::kJmpl: return "jmpl";
    case Mnemonic::kRett: return "rett";
    case Mnemonic::kTicc: return "t";
    case Mnemonic::kFlush: return "flush";
    case Mnemonic::kSave: return "save";
    case Mnemonic::kRestore: return "restore";
    case Mnemonic::kFpop1: return "fpop1";
    case Mnemonic::kFpop2: return "fpop2";
    case Mnemonic::kCpop1: return "cpop1";
    case Mnemonic::kCpop2: return "cpop2";
    case Mnemonic::kLd: return "ld";
    case Mnemonic::kLdub: return "ldub";
    case Mnemonic::kLduh: return "lduh";
    case Mnemonic::kLdd: return "ldd";
    case Mnemonic::kLdsb: return "ldsb";
    case Mnemonic::kLdsh: return "ldsh";
    case Mnemonic::kLda: return "lda";
    case Mnemonic::kLduba: return "lduba";
    case Mnemonic::kLduha: return "lduha";
    case Mnemonic::kLdda: return "ldda";
    case Mnemonic::kLdsba: return "ldsba";
    case Mnemonic::kLdsha: return "ldsha";
    case Mnemonic::kSt: return "st";
    case Mnemonic::kStb: return "stb";
    case Mnemonic::kSth: return "sth";
    case Mnemonic::kStd: return "std";
    case Mnemonic::kSta: return "sta";
    case Mnemonic::kStba: return "stba";
    case Mnemonic::kStha: return "stha";
    case Mnemonic::kStda: return "stda";
    case Mnemonic::kLdstub: return "ldstub";
    case Mnemonic::kLdstuba: return "ldstuba";
    case Mnemonic::kSwap: return "swap";
    case Mnemonic::kSwapa: return "swapa";
    case Mnemonic::kLdf: return "ldf";
    case Mnemonic::kLdfsr: return "ldfsr";
    case Mnemonic::kLddf: return "lddf";
    case Mnemonic::kStf: return "stf";
    case Mnemonic::kStfsr: return "stfsr";
    case Mnemonic::kStdfq: return "stdfq";
    case Mnemonic::kStdf: return "stdf";
    case Mnemonic::kLdc: return "ldc";
    case Mnemonic::kLdcsr: return "ldcsr";
    case Mnemonic::kLddc: return "lddc";
    case Mnemonic::kStc: return "stc";
    case Mnemonic::kStcsr: return "stcsr";
    case Mnemonic::kStdcq: return "stdcq";
    case Mnemonic::kStdc: return "stdc";
    case Mnemonic::kCount: break;
  }
  return "<?>";
}

std::string_view cond_name(Cond c) {
  switch (c) {
    case Cond::kN: return "n";
    case Cond::kE: return "e";
    case Cond::kLe: return "le";
    case Cond::kL: return "l";
    case Cond::kLeu: return "leu";
    case Cond::kCs: return "cs";
    case Cond::kNeg: return "neg";
    case Cond::kVs: return "vs";
    case Cond::kA: return "a";
    case Cond::kNe: return "ne";
    case Cond::kG: return "g";
    case Cond::kGe: return "ge";
    case Cond::kGu: return "gu";
    case Cond::kCc: return "cc";
    case Cond::kPos: return "pos";
    case Cond::kVc: return "vc";
  }
  return "?";
}

}  // namespace la::isa
