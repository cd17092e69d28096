#include "isa/isa.hpp"

namespace la::isa {

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
