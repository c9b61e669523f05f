//! The replica-side cost model shared by the Fig. 9/10 harnesses.

use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use shadowdb_simnet::CostModel;
use shadowdb_tob::mode::ModeCost;
use shadowdb_tob::{ExecutionMode, TobDeployment};
use std::time::Duration;

/// ShadowDB replica-side request overheads layered over the broadcast
/// service's mode cost: submissions pay the client/server (JDBC-ish) path,
/// forwards and acknowledgments pay their handling, and TOB delivery
/// notifications pay a per-message handling cost.
pub struct ShadowDbCost {
    tob: ModeCost,
    replicas: Vec<Loc>,
    deliver: Duration,
}

impl ShadowDbCost {
    /// Creates the model for a deployed group whose broadcast service
    /// `tob` runs in `mode`; `deliver_us` is the per-delivery-notification
    /// handling cost at a replica (400 µs for the tiny-payload micro
    /// benchmark, 60 µs for execution-dominated TPC-C).
    pub fn new(
        mode: ExecutionMode,
        tob: &TobDeployment,
        replicas: &[Loc],
        deliver_us: u64,
    ) -> ShadowDbCost {
        ShadowDbCost {
            tob: ModeCost::new(mode, tob.service_locs.clone()),
            replicas: replicas.to_vec(),
            deliver: Duration::from_micros(deliver_us),
        }
    }
}

impl CostModel for ShadowDbCost {
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration {
        if self.replicas.contains(&dest) {
            return match msg.header.name() {
                shadowdb::msgs::SUBMIT_HEADER => crate::baselines::REQUEST_OVERHEAD,
                shadowdb::msgs::FORWARD_HEADER => Duration::from_micros(60),
                shadowdb::msgs::ACK_HEADER => Duration::from_micros(45),
                shadowdb_tob::DELIVER_HEADER => self.deliver,
                _ => Duration::from_micros(5),
            };
        }
        self.tob.handle_cost(dest, msg)
    }
}
