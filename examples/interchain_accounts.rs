//! Interchain accounts (ICS-27) walk-through: a controller chain drives
//! an account it owns on a host chain, entirely over IBC packets.
//!
//! The script registers an account, watches the host airdrop spending
//! money into it, executes a cross-chain payment batch, and then shows
//! the atomicity guarantee: a batch that fails half-way leaves the host
//! bank untouched and surfaces the rejection controller-side.
//!
//! ```text
//! cargo run --release --example interchain_accounts
//! ```

use be_my_guest::apps::{ica_account, IcaOp, IcaOutcome};
use be_my_guest::mesh::{Mesh, MeshConfig, ICA_AIRDROP};
use be_my_guest::sim_crypto::time::MINUTE_MS;

const CONTROLLER: &str = "chain-a";
const HOST: &str = "chain-b";
const HOST_DENOM: &str = "tok-b";
const OWNER: &str = "alice";

fn host_balance(net: &Mesh, account: &str) -> u128 {
    net.node(HOST).unwrap().ica().bank().balance(account, HOST_DENOM)
}

fn main() {
    println!("ICS-27 interchain accounts — {CONTROLLER} drives an account on {HOST}");
    println!("=====================================================================");

    // Two chains, one direct link. The mesh binds every chain with an
    // IcaApp stack on the ica port; the host airdrops ICA_AIRDROP of its
    // native denom into each newly registered account.
    let mut net = Mesh::build(MeshConfig::line(2, 27)).unwrap();

    // 1. Register: a controller-side packet asks the host to open an
    //    account owned by `alice` (idempotent — re-registering is a no-op).
    net.ica_register_on(CONTROLLER, HOST, OWNER).unwrap();
    net.run_for(2 * MINUTE_MS);

    let account = ica_account(OWNER);
    let host_ica = net.node(HOST).unwrap().ica();
    println!("\nafter registration ({} account(s) on the host):", host_ica.registered());
    println!("  {OWNER} -> {:?}", host_ica.account_of(OWNER));
    println!("  airdropped balance: {} {HOST_DENOM}", host_balance(&net, &account));
    assert_eq!(host_balance(&net, &account), ICA_AIRDROP);

    // 2. Execute: a batch of host-side sends, committed atomically by the
    //    host and acknowledged back to the controller.
    let batch = vec![
        IcaOp::Send { denom: HOST_DENOM.into(), amount: 25_000, to: "bob".into() },
        IcaOp::Send { denom: HOST_DENOM.into(), amount: 10_000, to: "carol".into() },
        IcaOp::Noop,
    ];
    net.ica_execute_on(CONTROLLER, HOST, OWNER, batch).unwrap();
    net.run_for(2 * MINUTE_MS);

    println!("\nafter the payment batch:");
    println!("  {account}: {} {HOST_DENOM}", host_balance(&net, &account));
    println!("  bob:       {} {HOST_DENOM}", host_balance(&net, "bob"));
    println!("  carol:     {} {HOST_DENOM}", host_balance(&net, "carol"));
    assert_eq!(host_balance(&net, &account), ICA_AIRDROP - 35_000);

    // 3. Atomicity: the first send alone would succeed, but the second
    //    overspends — the host rolls the whole batch back, so dave never
    //    sees a unit, and the controller reads the rejection reason.
    let doomed = vec![
        IcaOp::Send { denom: HOST_DENOM.into(), amount: 900_000, to: "dave".into() },
        IcaOp::Send { denom: HOST_DENOM.into(), amount: 200_000, to: "erin".into() },
    ];
    net.ica_execute_on(CONTROLLER, HOST, OWNER, doomed).unwrap();
    net.run_for(2 * MINUTE_MS);

    println!("\nafter the overspending batch (rolled back atomically):");
    println!("  {account}: {} {HOST_DENOM}", host_balance(&net, &account));
    println!("  dave:      {} {HOST_DENOM}", host_balance(&net, "dave"));
    assert_eq!(host_balance(&net, &account), ICA_AIRDROP - 35_000);
    assert_eq!(host_balance(&net, "dave"), 0);

    // 4. The controller-side ledger of outcomes, one per sent packet.
    println!("\ncontroller-side outcomes:");
    let controller_ica = net.node(CONTROLLER).unwrap().ica();
    for ((channel, sequence), outcome) in controller_ica.outcomes() {
        match outcome {
            IcaOutcome::Executed(n) => println!("  {channel}#{sequence}: executed {n} op(s)"),
            IcaOutcome::Rejected(reason) => println!("  {channel}#{sequence}: rejected — {reason}"),
            IcaOutcome::TimedOut => println!("  {channel}#{sequence}: timed out"),
        }
    }
    let rejected =
        controller_ica.outcomes().filter(|(_, o)| matches!(o, IcaOutcome::Rejected(_))).count();
    assert_eq!(rejected, 1, "exactly the doomed batch is rejected");

    println!("\nthe host executed batches against its own bank; the controller never");
    println!("held {HOST_DENOM} — it only ever signed IBC packets. That is ICS-27.");
}
