#include "base/status.h"

namespace semperos {

const char* ErrName(ErrCode code) {
  switch (code) {
    case ErrCode::kOk:
      return "ok";
    case ErrCode::kInvalidArgs:
      return "invalid args";
    case ErrCode::kNoSuchCap:
      return "no such capability";
    case ErrCode::kNoSuchVpe:
      return "no such VPE";
    case ErrCode::kNoSuchService:
      return "no such service";
    case ErrCode::kNoSuchFile:
      return "no such file";
    case ErrCode::kExists:
      return "already exists";
    case ErrCode::kNoPerm:
      return "permission denied";
    case ErrCode::kInvalidCapType:
      return "invalid capability type";
    case ErrCode::kCapRevoked:
      return "capability in revocation";
    case ErrCode::kVpeGone:
      return "VPE gone";
    case ErrCode::kVpeMigrating:
      return "VPE migrating";
    case ErrCode::kNoCredits:
      return "no send credits";
    case ErrCode::kOutOfRange:
      return "out of range";
    case ErrCode::kAborted:
      return "aborted";
    case ErrCode::kUnreachable:
      return "unreachable";
  }
  return "unknown";
}

}  // namespace semperos
