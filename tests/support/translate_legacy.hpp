// Legacy recursive translator: the reference oracle that the plan-compiled
// engine (wire/translate.hpp) is checked against in wire_translate_test
// and measured against in bench/translate_plan. Same contracts as
// encode_units / decode_units / measure_units.
#pragma once

#include "wire/translate.hpp"

namespace iw {

void encode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         const void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, Buffer& out);

void decode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, BufReader& in);

uint64_t measure_units_legacy(const TypeDescriptor& type,
                              const LayoutRules& rules, const void* base,
                              uint64_t begin, uint64_t end,
                              TranslationHooks& hooks);

}  // namespace iw
