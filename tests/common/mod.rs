//! The reference the structure-pool tests compare against: every VC checked
//! by a fresh session that shares nothing with the method's other VCs.

use intrinsic_verify::core::pipeline::{
    load_methods, prepare_method_in, MethodReport, MethodSession, PipelineConfig, VcVerdict,
};
use intrinsic_verify::core::IntrinsicDefinition;

/// The report of `method` when each of its VCs is checked, in order, by a
/// fresh [`MethodSession`], stopping at the first non-valid one.
pub fn fresh_session_per_vc(
    ids: &IntrinsicDefinition,
    methods_src: &str,
    method: &str,
) -> MethodReport {
    let merged = load_methods(ids, methods_src).unwrap();
    let task = prepare_method_in(ids, &merged, method, PipelineConfig::default()).unwrap();
    let mut results = Vec::new();
    for vi in 0..task.num_vcs() {
        let result = MethodSession::new(&task).unwrap().check_vc(vi);
        let stop = result.verdict != VcVerdict::Valid;
        results.push(result);
        if stop {
            break;
        }
    }
    task.report(&results)
}
