package allocgate

// Budgets is the checked-in ceiling on steady-state heap allocations
// per Step for every gated configuration, measured at Threads workers.
// Lowering a budget is always safe; raising one is a performance
// regression and needs the same scrutiny as a slower benchmark result.
//
// Every kernel holds a zero budget at both classes: region bodies are
// closures built once at construction time (including the nscore.Field
// RHS bodies BT and SP share and their own solve/transform bodies),
// operands are staged through benchmark fields, reductions go through
// the team's block-indexed partial slots, and LU's plane pipeline is
// cached per team. The former BT/SP per-step phase thunks were replaced
// by plain phase-bracket calls, which is what took their budgets from
// 22/30 to zero.
var Budgets = map[Key]int{
	{"cg", 'S'}: 0,
	{"cg", 'W'}: 0,

	{"ep", 'S'}: 0,
	{"ep", 'W'}: 0,

	{"ft", 'S'}: 0,
	{"ft", 'W'}: 0,

	{"is", 'S'}:         0,
	{"is", 'W'}:         0,
	{"is-buckets", 'S'}: 0,
	{"is-buckets", 'W'}: 0,

	{"mg", 'S'}: 0,
	{"mg", 'W'}: 0,

	{"lu", 'S'}: 0,
	{"lu", 'W'}: 0,

	{"bt", 'S'}: 0,
	{"bt", 'W'}: 0,

	{"sp", 'S'}: 0,
	{"sp", 'W'}: 0,
}
