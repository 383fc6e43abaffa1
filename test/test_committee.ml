(* Committee sampling (King–Saia style) and the sub-quadratic agreement
   protocol built on it.

   Three layers under test: the pure sampling functions (determinism —
   including across Pool workers —, size and concentration bounds, the
   attestor/audience inversion), the sparse fan-out through every
   delivery core (the committee protocols are the first consumers of
   large addressed-unicast batches, so the cores must agree byte-for-byte
   on exactly that shape), and the protocol end-to-end under the attacks
   that target the spreading phase. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Unknown_ba
open Helpers
module C = Scenarios.Committee_int

(* ----- sampling: determinism and bounds ----- *)

let universe_of ~seed n = Scenarios.make_ids ~seed n

let test_sampling_deterministic () =
  let universe = universe_of ~seed:11L 101 in
  let a = Committee.members ~seed:42L ~universe in
  let b = Committee.members ~seed:42L ~universe in
  check_true "same committee from same seed" (a = b);
  let shuffled = List.rev universe in
  check_true "universe order is irrelevant"
    (a = Committee.members ~seed:42L ~universe:shuffled);
  check_false "different seed, different committee"
    (a = Committee.members ~seed:43L ~universe);
  let self = List.nth universe 17 in
  check_true "attestor sample deterministic"
    (Committee.attestors ~seed:42L ~universe ~self
    = Committee.attestors ~seed:42L ~universe:shuffled ~self)

let test_sampling_sizes () =
  List.iter
    (fun n ->
      let universe = universe_of ~seed:5L n in
      let committee = Committee.members ~seed:7L ~universe in
      check_int
        (Printf.sprintf "committee size at n=%d" n)
        (Committee.committee_size n)
        (List.length committee);
      let com = Node_id.Set.of_list committee in
      check_true "committee drawn from the universe"
        (List.for_all (fun id -> List.exists (Node_id.equal id) universe)
           committee);
      let self = List.hd universe in
      let att = Committee.attestors ~seed:7L ~universe ~self in
      check_int
        (Printf.sprintf "attestor size at n=%d" n)
        (Committee.attestor_size n) (List.length att);
      check_true "attestors are committee members"
        (List.for_all (fun id -> Node_id.Set.mem id com) att))
    [ 5; 40; 101; 301 ]

let test_audience_inverts_attestors () =
  let universe = universe_of ~seed:3L 61 in
  let committee = Committee.members ~seed:9L ~universe in
  List.iteri
    (fun i member ->
      if i < 4 then
        let audience = Committee.audience ~seed:9L ~universe ~member in
        (* Soundness: everyone in the audience sampled this member. *)
        check_true "audience members sampled this attestor"
          (List.for_all
             (fun o ->
               List.exists (Node_id.equal member)
                 (Committee.attestors ~seed:9L ~universe ~self:o))
             audience);
        (* Completeness: everyone who sampled it is in the audience. *)
        check_true "every sampler is in the audience"
          (List.for_all
             (fun o ->
               (not
                  (List.exists (Node_id.equal member)
                     (Committee.attestors ~seed:9L ~universe ~self:o)))
               || List.exists (Node_id.equal o) audience)
             universe))
    committee;
  check_true "non-members have no audience"
    (List.for_all
       (fun o ->
         List.exists (Node_id.equal o) committee
         || Committee.audience ~seed:9L ~universe ~member:o = [])
       universe)

let test_concentration_bounds () =
  (* The model assumption is ε-slacked: f ≤ (1−ε)n/3, exercised at the
     experiments' f = n/6. The adversary fixes its corruption set before
     the seed is revealed — here the lexicographically first n/6
     identifiers, a fully contiguous (worst-clustered) placement — and
     over a bank of seeds every sampled committee must keep its Byzantine
     fraction below the 1/3 the inner consensus tolerates, and most
     attestor samples must keep an honest majority. *)
  let n = 301 in
  let universe = universe_of ~seed:77L n in
  let sorted = Node_id.sorted universe in
  let f = n / 6 in
  let byz = Node_id.Set.of_list (List.filteri (fun i _ -> i < f) sorted) in
  List.iter
    (fun seed ->
      let committee = Committee.members ~seed ~universe in
      let k = List.length committee in
      let bad =
        List.length (List.filter (fun id -> Node_id.Set.mem id byz) committee)
      in
      check_true
        (Printf.sprintf "committee < k/3 Byzantine at seed %Ld (%d of %d)"
           seed bad k)
        (3 * bad < k);
      let honest_majorities =
        List.length
          (List.filter
             (fun self ->
               let att = Committee.attestors ~seed ~universe ~self in
               let bad_att =
                 List.length
                   (List.filter (fun id -> Node_id.Set.mem id byz) att)
               in
               2 * bad_att < List.length att)
             sorted)
      in
      check_true
        (Printf.sprintf "most attestor samples honest-majority at seed %Ld"
           seed)
        (10 * honest_majorities > 9 * n))
    (List.init 12 (fun i -> Int64.of_int (1000 + (i * 37))))

let test_sampling_identical_across_jobs () =
  (* The CX2 sweep maps cells with Pool at arbitrary --jobs; the sampled
     structures must be byte-identical however the map is scheduled. *)
  let cells = List.init 8 (fun i -> Int64.of_int (50 + i)) in
  let sample seed =
    let universe = universe_of ~seed:13L 101 in
    let committee = Committee.members ~seed ~universe in
    let att =
      Committee.attestors ~seed ~universe ~self:(List.nth universe 3)
    in
    List.map Node_id.to_int committee @ List.map Node_id.to_int att
  in
  let serial = Pool.map ~jobs:1 sample cells in
  let parallel = Pool.map ~jobs:4 sample cells in
  check_true "Pool jobs=1 and jobs=4 byte-identical" (serial = parallel)

(* ----- sparse fan-out differential across delivery cores ----- *)

(* The committee protocol's traffic is large batches of addressed
   unicasts (inner consensus at k ≈ 2√n fan-out, reports at √n·log n
   fan-out) — a shape the original differential's uniform random traffic
   underweights. Generate exactly that shape from real samples and
   require both cores to agree on inboxes and wire counters. *)
let committee_traffic rng =
  let n = 20 + Rng.int rng 60 in
  let seed = Rng.int64 rng in
  let universe = Scenarios.make_ids ~seed n in
  let committee = Committee.members ~seed ~universe in
  let present =
    List.filter (fun _ -> Rng.int rng 10 > 0) universe |> Node_id.Set.of_list
  in
  let inner =
    List.concat_map
      (fun m ->
        if Rng.int rng 3 = 0 then []
        else
          List.map
            (fun peer -> Envelope.send ~src:m ~dst:peer (Rng.int rng 5))
            committee)
      committee
  in
  let reports =
    List.concat_map
      (fun m ->
        if Rng.bool rng then []
        else
          List.map
            (fun o -> Envelope.send ~src:m ~dst:o (100 + Rng.int rng 3))
            (Committee.audience ~seed ~universe ~member:m))
      committee
  in
  (present, inner @ reports)

let wire_of routefn ~present ~envelopes =
  let w = Ubpa_obs.Wire.create () in
  let on_deliver ~recipient ~src payload =
    Ubpa_obs.Wire.record w ~round:1 ~sender:src ~recipient
      ~kind:(if payload >= 100 then "report" else "inner")
      ~bits:(Ubpa_obs.Sizing.structural_bits payload)
  in
  let inboxes, count = routefn ~on_deliver ~present ~envelopes in
  (inboxes, count, w)

let prop_sparse_fanout_cross_core =
  QCheck2.Test.make ~count:80
    ~name:"sparse committee fan-out: arena == reference"
    QCheck2.Gen.(int_range 1 100_000)
    (fun qseed ->
      let rng = Rng.create (Int64.of_int qseed) in
      let present, envelopes = committee_traffic rng in
      let i_ref, c_ref, w_ref =
        wire_of
          (fun ~on_deliver ~present ~envelopes ->
            Delivery.route_reference ~on_deliver ~equal:Int.equal ~present
              ~envelopes ())
          ~present ~envelopes
      in
      let i, c, w = wire_of Helpers.arena_route ~present ~envelopes in
      c = c_ref && Node_id.Map.equal ( = ) i i_ref && Ubpa_obs.Wire.equal w w_ref)

(* ----- protocol end-to-end ----- *)

let check_green ?(expect_valid = true) msg (s : C.summary) =
  check_true (msg ^ ": all terminated") s.C.all_terminated;
  check_true (msg ^ ": agreement") s.C.agreed;
  if expect_valid then check_true (msg ^ ": validity") s.C.valid;
  check_true (msg ^ ": monitors green") s.C.monitor_green

let test_unanimous_all_correct () =
  let s = C.run ~seed:21L ~n_correct:40 ~inputs:all_same () in
  check_green "unanimous n=40" s;
  List.iter (fun (_, v) -> check_int "decided the input" 7 v) s.C.outputs

let test_split_inputs_all_correct () =
  let s = C.run ~seed:22L ~n_correct:45 ~inputs:binary_split () in
  check_green "split n=45" s

let test_silent_byzantine () =
  let f = 7 in
  let s =
    C.run ~seed:23L
      ~byz:(List.init f (fun _ -> C.Attacks.silent_member))
      ~n_correct:(6 * f) ~inputs:binary_split ()
  in
  check_green "silent f=n/6" s;
  check_true "some Byzantine was sampled somewhere or not — bounded"
    (3 * s.C.byz_members < List.length s.C.committee)

let test_report_equivocate_attack () =
  let f = 5 in
  let s =
    C.run ~seed:24L
      ~byz:(List.init f (fun _ -> C.Attacks.report_equivocate 0 1))
      ~n_correct:(6 * f) ~inputs:all_same ()
  in
  check_green "report equivocation" s

let test_report_flood_attack () =
  let f = 5 in
  let s =
    C.run ~seed:25L
      ~byz:(List.init f (fun _ -> C.Attacks.report_flood 99))
      ~n_correct:(6 * f) ~inputs:all_same ()
  in
  check_green "report flood" s;
  List.iter
    (fun (_, v) -> check_int "forged value never adopted" 7 v)
    s.C.outputs

let test_inner_split_attack () =
  let f = 5 in
  let s =
    C.run ~seed:26L
      ~byz:(List.init f (fun _ -> C.Attacks.inner_split 0 1))
      ~n_correct:(6 * f) ~inputs:binary_split ()
  in
  check_green "inner split" s

let test_cores_agree_end_to_end () =
  (* The same run on the reference and arena cores must produce identical
     outputs, rounds and wire counters — CX1's identity claim at the
     committee protocol's fan-out shape, end to end. *)
  let run delivery =
    C.run ~seed:27L ~delivery ~n_correct:50
      ~byz:[ C.Attacks.silent_member; C.Attacks.report_flood 5 ]
      ~inputs:binary_split ()
  in
  let a = run Delivery.Naive and b = run Delivery.Arena in
  check_true "same outputs" (a.C.outputs = b.C.outputs);
  check_int "same rounds" a.C.rounds b.C.rounds;
  check_int "same delivered" a.C.delivered_msgs b.C.delivered_msgs;
  check_int "same max budget bits" a.C.max_budget_bits b.C.max_budget_bits

let test_budget_is_subquadratic () =
  (* Not the gated envelope (that is CX2's job over a real sweep) — just
     the qualitative point: the densest node's budget stays well under
     the all-to-all cost n·(bits of one message round). *)
  let s = C.run ~seed:28L ~n_correct:120 ~inputs:binary_split () in
  check_green "n=120 plain" s;
  check_true "max per-node budget well below dense cost"
    (s.C.max_budget_msgs < 120 * 40)

let suite =
  ( "committee",
    [
      quick "sampling: deterministic in (seed, universe-set)"
        test_sampling_deterministic;
      quick "sampling: sizes k=⌈2√n⌉, q=2⌈log2 n⌉" test_sampling_sizes;
      quick "sampling: audience inverts attestors"
        test_audience_inverts_attestors;
      quick "sampling: concentration under f=n/6 prefix corruption"
        test_concentration_bounds;
      quick "sampling: identical across Pool --jobs"
        test_sampling_identical_across_jobs;
      quick "protocol: unanimous inputs, all correct"
        test_unanimous_all_correct;
      quick "protocol: split inputs, all correct"
        test_split_inputs_all_correct;
      quick "protocol: silent Byzantine at f=n/6" test_silent_byzantine;
      quick "protocol: report equivocation blunted"
        test_report_equivocate_attack;
      quick "protocol: forged report flood never adopted"
        test_report_flood_attack;
      quick "protocol: inner split-world through the overlay"
        test_inner_split_attack;
      quick "protocol: reference and arena cores byte-identical"
        test_cores_agree_end_to_end;
      quick "protocol: per-node budget qualitatively sparse"
        test_budget_is_subquadratic;
    ]
    @ Helpers.qcheck_cases [ prop_sparse_fanout_cross_core ] )
