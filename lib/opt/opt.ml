open Exochi_isa
open X3k_ast
module Lane = Exochi_accel.Lane
module IR = Opt_ir

(* Exo-opt: an SSA-free, CFG-level optimization pipeline over X3K
   programs. Legality leans on three ISA facts, so no SSA construction
   is needed:

   - registers are 16-lane vectors and a width-w write only touches
     lanes 0..w-1, so a def is really a read-modify-write: every pass
     treats defs as uses for ordering, and value facts always carry the
     width they are known for;
   - [Reg]/[Imm] operand reads are wrap32-normalised exactly like the
     values [Lane] produces, so replaying an instruction's [Lane] calls
     at compile time yields bit-identical results;
   - [fdiv]/[fsqrt]/[dpadd] can fault into the CEH proxy path and
     [ld]/[gather]/[sample] can raise [Gpu_segfault], so those are
     never folded, deleted or speculated.

   Anything outside that comfort zone ([spawn], [sendreg], semaphores,
   remote operands, predicated control flow) makes [Opt_ir.build]
   raise [Unsupported] and the program is returned unchanged. *)

module ISet = Set.Make (Int)
module SMap = Map.Make (String)
module IMap = Map.Make (Int)

type level = O0 | O1 | O2

let level_to_int = function O0 -> 0 | O1 -> 1 | O2 -> 2

let level_of_int = function
  | 0 -> Some O0
  | 1 -> Some O1
  | 2 -> Some O2
  | _ -> None

let level_of_string = function
  | "0" | "O0" | "-O0" -> Some O0
  | "1" | "O1" | "-O1" -> Some O1
  | "2" | "O2" | "-O2" -> Some O2
  | _ -> None

let level_name l = Printf.sprintf "O%d" (level_to_int l)

(* ------------------------------------------------------------------ *)
(* Value facts: constant + copy propagation                            *)
(* ------------------------------------------------------------------ *)

type fact =
  | Const of int * int (* width w, value: lanes 0..w-1 all hold value *)
  | CopyOf of int * int (* src reg s, width w: lanes 0..w-1 equal s's *)

let meet_fact a b =
  match (a, b) with
  | Const (w1, v1), Const (w2, v2) when v1 = v2 -> Some (Const (min w1 w2, v1))
  | CopyOf (s1, w1), CopyOf (s2, w2) when s1 = s2 ->
    Some (CopyOf (s1, min w1 w2))
  | _ -> None

let meet_env e1 e2 =
  IMap.merge
    (fun _ a b ->
      match (a, b) with Some x, Some y -> meet_fact x y | _ -> None)
    e1 e2

(* forget everything about reg r: its own fact and any copy reading it *)
let kill_reg env r =
  IMap.filter
    (fun d f ->
      d <> r && match f with CopyOf (s, _) -> s <> r | Const _ -> true)
    env

let imm_value v = Lane.wrap32 (Int32.to_int v)

(* constant value of an operand's lanes 0..width-1 under env *)
let const_of env ~width = function
  | Imm v -> Some (imm_value v)
  | Reg r -> (
    match IMap.find_opt r env with
    | Some (Const (w, v)) when w >= width -> Some v
    | _ -> None)
  | _ -> None

(* exact mirrors of Gpu.alu_result / Gpu.unary_result for the
   deterministic ops (faulting fdiv/fsqrt/dpadd deliberately absent) *)
let eval_binop op dtype a b =
  match op with
  | Add -> Some (Lane.add dtype a b)
  | Sub -> Some (Lane.sub dtype a b)
  | Mul -> Some (Lane.mul dtype a b)
  | Min -> Some (Lane.min_ dtype a b)
  | Max -> Some (Lane.max_ dtype a b)
  | Avg -> Some (Lane.avg dtype a b)
  | Shl -> Some (Lane.shl dtype a b)
  | Shr -> Some (Lane.shr dtype a b)
  | Sar -> Some (Lane.sar dtype a b)
  | And -> Some (Lane.and_ a b)
  | Or -> Some (Lane.or_ a b)
  | Xor -> Some (Lane.xor_ a b)
  | Fadd -> Some (Lane.fadd a b)
  | Fsub -> Some (Lane.fsub a b)
  | Fmul -> Some (Lane.fmul a b)
  | Fmin -> Some (Lane.fmin a b)
  | Fmax -> Some (Lane.fmax a b)
  | _ -> None

let eval_unop op dtype a =
  match op with
  | Mov | Bcast -> Some (Lane.wrap dtype a)
  | Abs -> Some (Lane.abs_ dtype a)
  | Not -> Some (Lane.not_ dtype a)
  | Sat -> Some (Lane.saturate dtype a)
  | Fabs -> Some (Lane.fabs a)
  | Cvtif -> Some (Lane.cvtif a)
  | Cvtfi -> Some (Lane.cvtfi a)
  | _ -> None

(* value all dst lanes 0..width-1 would hold, when provable *)
let fold_value env i =
  match (i.pred, i.dst, i.srcs) with
  | None, Some (Reg _), [ a; b ] -> (
    match (const_of env ~width:i.width a, const_of env ~width:i.width b) with
    | Some va, Some vb -> eval_binop i.op i.dtype va vb
    | _ -> None)
  | None, Some (Reg _), [ a ] -> (
    let width = if i.op = Bcast then 1 else i.width in
    match const_of env ~width a with
    | Some va -> eval_unop i.op i.dtype va
    | None -> None)
  | _ -> None

(* substitute proven-constant and copied registers into source (and
   surface-address) operands. Surface/2d addressing reads lane 0 of
   its registers only (see Gpu.element_vaddrs), so width-1 facts are
   enough there. *)
let subst_operand env ~width o =
  let copy_for ~width r =
    match IMap.find_opt r env with
    | Some (CopyOf (s, w)) when w >= width -> Some s
    | _ -> None
  in
  match o with
  | Reg r -> (
    match IMap.find_opt r env with
    | Some (Const (w, v)) when w >= width ->
      Imm (Int32.of_int (v land 0xFFFFFFFF))
    | Some (CopyOf (s, w)) when w >= width -> Reg s
    | _ -> o)
  | Surf s -> (
    match copy_for ~width:1 s.index with
    | Some index -> Surf { s with index }
    | None -> o)
  | Surf2d s ->
    let xreg = Option.value (copy_for ~width:1 s.xreg) ~default:s.xreg in
    let yreg = Option.value (copy_for ~width:1 s.yreg) ~default:s.yreg in
    if xreg = s.xreg && yreg = s.yreg then o else Surf2d { s with xreg; yreg }
  | Range _ | Flag _ | Imm _ | Sreg _ | Remote _ -> o

let rewrite_instr env i =
  let srcs = List.map (subst_operand env ~width:i.width) i.srcs in
  let dst =
    (* a surface/remote destination's address regs are uses *)
    match i.dst with
    | Some ((Surf _ | Surf2d _) as o) -> Some (subst_operand env ~width:i.width o)
    | d -> d
  in
  let i = { i with srcs; dst } in
  match fold_value env i with
  | Some v when not (i.op = Mov && match i.srcs with [ Imm _ ] -> true | _ -> false)
    ->
    { i with op = Mov; srcs = [ Imm (Int32.of_int (v land 0xFFFFFFFF)) ] }
  | _ -> i

(* env after executing [i] (which reads the pre-state) *)
let transfer env i =
  let gained =
    match fold_value env i with
    | Some v -> (
      match i.dst with
      | Some (Reg d) -> Some (d, Const (i.width, v))
      | _ -> None)
    | None -> (
      match (i.pred, i.op, i.dst, i.srcs) with
      | None, Mov, Some (Reg d), [ Reg s ] when s <> d -> (
        match IMap.find_opt s env with
        | Some (Const (w, v)) when w >= i.width ->
          Some (d, Const (i.width, Lane.wrap i.dtype v))
        | Some (CopyOf (s0, w)) when i.dtype = DW && w >= i.width && s0 <> d ->
          Some (d, CopyOf (s0, i.width))
        | _ when i.dtype = DW -> Some (d, CopyOf (s, i.width))
        | _ -> None)
      | _ -> None)
  in
  let du = X3k_flow.def_use i in
  let env = List.fold_left kill_reg env du.X3k_flow.reg_defs in
  match gained with Some (d, f) -> IMap.add d f env | None -> env

(* Forward fixpoint of per-block const/copy envs. Blocks start
   optimistic (unvisited preds are ignored in the meet) and facts only
   shrink once computed, so iteration terminates at a sound fixpoint. *)
let const_envs t =
  let g = IR.cfg t in
  let nb = IR.num_blocks t in
  let out_env = Array.make nb IMap.empty in
  let computed = Array.make nb false in
  let in_env b =
    if b = 0 then IMap.empty
    else
      match List.filter (fun p -> computed.(p)) g.Cfg.pred.(b) with
      | [] -> IMap.empty
      | p :: rest ->
        List.fold_left (fun acc q -> meet_env acc out_env.(q)) out_env.(p) rest
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > 1000 then IR.unsupported "const-env fixpoint diverged";
    Array.iter
      (fun b ->
        if b >= 0 && b < nb then begin
          let e = List.fold_left transfer (in_env b) t.IR.blocks.(b).IR.body in
          if (not computed.(b)) || not (IMap.equal ( = ) out_env.(b) e) then begin
            out_env.(b) <- e;
            computed.(b) <- true;
            changed := true
          end
        end)
      g.Cfg.rpo
  done;
  (g, out_env, in_env)

(* ---- pass: constant folding + copy propagation ---- *)

let fold_prop t =
  let _, _, in_env = const_envs t in
  let changed = ref false in
  Array.iteri
    (fun bi b ->
      let env = ref (in_env bi) in
      let body =
        List.map
          (fun i ->
            let i' = rewrite_instr !env i in
            env := transfer !env i';
            if i' <> i then changed := true;
            i')
          b.IR.body
      in
      b.IR.body <- body)
    t.IR.blocks;
  !changed

(* ---- pass: strength reduction ---- *)

let is_pow2 v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 v

let strength_rewrite i =
  let int_dtype = match i.dtype with B | W | DW -> true | F -> false in
  if i.pred <> None || not int_dtype then i
  else
    let mov src = { i with op = Mov; srcs = [ src ] } in
    match (i.op, i.srcs) with
    | Mul, [ a; Imm c ] | Mul, [ Imm c; a ] -> (
      match imm_value c with
      | 0 -> mov (Imm 0l)
      | 1 -> mov a
      | cv when is_pow2 cv ->
        (* a * 2^k == a lsl k exactly, and the per-dtype wrap agrees *)
        { i with op = Shl; srcs = [ a; Imm (Int32.of_int (log2 cv)) ] }
      | _ -> i)
    | Add, [ a; Imm c ] when imm_value c = 0 -> mov a
    | Add, [ Imm c; a ] when imm_value c = 0 -> mov a
    | Sub, [ a; Imm c ] when imm_value c = 0 -> mov a
    | Shl, [ a; Imm c ] when imm_value c = 0 -> mov a
    (* or/xor with 0 skip the dtype wrap (Lane.or_ has no dtype), so
       they are only mov-equivalent at dw width *)
    | Or, [ a; Imm c ] when imm_value c = 0 && i.dtype = DW -> mov a
    | Or, [ Imm c; a ] when imm_value c = 0 && i.dtype = DW -> mov a
    | Xor, [ a; Imm c ] when imm_value c = 0 && i.dtype = DW -> mov a
    | Xor, [ Imm c; a ] when imm_value c = 0 && i.dtype = DW -> mov a
    | _ -> i

let strength t =
  let changed = ref false in
  Array.iter
    (fun b ->
      b.IR.body <-
        List.map
          (fun i ->
            let i' = strength_rewrite i in
            if i' <> i then changed := true;
            i')
          b.IR.body)
    t.IR.blocks;
  !changed

(* ---- pass: common-subexpression elimination over extended basic
   blocks ---- *)

(* deterministic register-only ops a CSE table may hold *)
let cse_op = function
  | Mov | Add | Sub | Mul | Min | Max | Avg | Abs | Sad | Hadd | Shl | Shr
  | Sar | And | Or | Xor | Not | Sat | Bcast | Fadd | Fsub | Fmul | Fmin
  | Fmax | Fabs | Cvtif | Cvtfi | Cmp _ ->
    true
  | Mac | Fmac (* read their destination *) | Sel | Fdiv | Fsqrt | Dpadd
  | Ld | St | Gather | Scatter | Sample | Br _ | Jmp | End | Fence | Semacq
  | Semrel | Sendreg | Spawn | Nop ->
    false

let sreg_key = function
  | Sid -> "sid"
  | Nshred -> "nshred"
  | Eu -> "eu"
  | Tid -> "tid"
  | Lane -> "lane"
  | Param n -> Printf.sprintf "p%d" n

let operand_key = function
  | Reg r -> Some (Printf.sprintf "r%d" r)
  | Imm v -> Some (Printf.sprintf "i%ld" v)
  | Sreg s -> Some ("s" ^ sreg_key s)
  | Flag f -> Some (Printf.sprintf "f%d" f)
  | Range _ | Surf _ | Surf2d _ | Remote _ -> None

let expr_key i =
  let rec srcs acc = function
    | [] -> Some (List.rev acc)
    | o :: rest -> (
      match operand_key o with
      | Some k -> srcs (k :: acc) rest
      | None -> None)
  in
  match srcs [] i.srcs with
  | Some ks ->
    Some
      (Printf.sprintf "%s.%d.%s:%s" (opcode_name i.op) i.width
         (dtype_name i.dtype) (String.concat "," ks))
  | None -> None

type cse_entry = { holder : operand; dep_regs : ISet.t; dep_flags : ISet.t }

let cse t =
  let g = IR.cfg t in
  let nb = IR.num_blocks t in
  let changed = ref false in
  let visited = Array.make nb false in
  let kill_table table (du : X3k_flow.def_use) =
    if du.X3k_flow.reg_defs = [] && du.X3k_flow.flag_defs = [] then table
    else
      SMap.filter
        (fun _ e ->
          (not
             (List.exists (fun r -> ISet.mem r e.dep_regs) du.X3k_flow.reg_defs))
          && not
               (List.exists
                  (fun f -> ISet.mem f e.dep_flags)
                  du.X3k_flow.flag_defs))
        table
  in
  let rec visit b table =
    visited.(b) <- true;
    let table = ref table in
    let body =
      List.filter_map
        (fun i ->
          let du = X3k_flow.def_use i in
          let candidate =
            i.pred = None && cse_op i.op
            && match i.dst with Some (Reg _) | Some (Flag _) -> true | _ -> false
          in
          let key = if candidate then expr_key i else None in
          match key with
          | Some k -> (
            match (SMap.find_opt k !table, i.dst) with
            | Some { holder = Reg h; _ }, Some (Reg d) when h = d ->
              (* recomputation of a value the register still holds *)
              changed := true;
              None
            | Some { holder = Flag h; _ }, Some (Flag d) when h = d ->
              changed := true;
              None
            | Some { holder = Reg h; _ }, Some (Reg _) ->
              let mov =
                { i with op = Mov; dtype = DW; srcs = [ Reg h ] }
              in
              changed := true;
              table := kill_table !table du;
              Some mov
            | Some _, _ ->
              table := kill_table !table du;
              Some i
            | None, Some dst ->
              table := kill_table !table du;
              (* a read-modify-write expression (dst among its own
                 sources, e.g. [add r4 = r4, 8]) is invalidated by its
                 own execution — never record it *)
              let rmw =
                match dst with
                | Reg d -> List.mem d du.X3k_flow.reg_uses
                | Flag d -> List.mem d du.X3k_flow.flag_uses
                | _ -> false
              in
              if not rmw then begin
                let dep_regs =
                  List.fold_left (fun s r -> ISet.add r s)
                    (match dst with Reg d -> ISet.singleton d | _ -> ISet.empty)
                    du.X3k_flow.reg_uses
                in
                let dep_flags =
                  List.fold_left (fun s f -> ISet.add f s)
                    (match dst with Flag d -> ISet.singleton d | _ -> ISet.empty)
                    du.X3k_flow.flag_uses
                in
                table := SMap.add k { holder = dst; dep_regs; dep_flags } !table
              end;
              Some i
            | None, None -> assert false)
          | None ->
            table := kill_table !table du;
            Some i)
        t.IR.blocks.(b).IR.body
    in
    t.IR.blocks.(b).IR.body <- body;
    let final = !table in
    List.iter
      (fun s ->
        if s <> b && (not visited.(s)) && g.Cfg.pred.(s) = [ b ] then
          visit s final)
      (IR.succs t b)
  in
  for b = 0 to nb - 1 do
    if (not visited.(b)) && List.length g.Cfg.pred.(b) <> 1 then
      visit b SMap.empty
  done;
  (* blocks on single-pred cycles never got a root; give them empty
     tables so rewrites stay sound *)
  for b = 0 to nb - 1 do
    if not visited.(b) then visit b SMap.empty
  done;
  !changed

(* ---- liveness (no-kill, so partial-width writes are safe) ---- *)

let instr_uses (du : X3k_flow.def_use) =
  ( ISet.of_list du.X3k_flow.reg_uses,
    ISet.of_list du.X3k_flow.flag_uses )

(* An unpredicated [cmp] overwrites its destination flag in full (all
   16 mask bits, whatever the cmp width — see [Gpu.exec]), so it
   kills the flag for liveness. Register writes are partial (lanes
   0..width-1 only), so registers never have kills. *)
let flag_kill i =
  match (i.pred, i.op, i.dst) with
  | None, Cmp _, Some (Flag f) -> Some f
  | _ -> None

let liveness t =
  let nb = IR.num_blocks t in
  (* gen = upward-exposed uses; kill = flags fully defined before any
     use — both from a backward scan of the block *)
  let gen = Array.make nb (ISet.empty, ISet.empty) in
  let kill = Array.make nb ISet.empty in
  Array.iteri
    (fun b blk ->
      let tr, tf = IR.term_uses t b in
      let regs = ref (ISet.of_list tr) and flags = ref (ISet.of_list tf) in
      let killed = ref ISet.empty in
      List.iter
        (fun i ->
          (match flag_kill i with
          | Some f ->
            flags := ISet.remove f !flags;
            killed := ISet.add f !killed
          | None -> ());
          let r, f = instr_uses (X3k_flow.def_use i) in
          regs := ISet.union !regs r;
          flags := ISet.union !flags f)
        (List.rev blk.IR.body);
      gen.(b) <- (!regs, !flags);
      kill.(b) <- !killed)
    t.IR.blocks;
  let live_in = Array.make nb (ISet.empty, ISet.empty) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let out_r, out_f =
        List.fold_left
          (fun (r, f) s ->
            let sr, sf = live_in.(s) in
            (ISet.union r sr, ISet.union f sf))
          (ISet.empty, ISet.empty) (IR.succs t b)
      in
      let gr, gf = gen.(b) in
      let nr = ISet.union gr out_r
      and nf = ISet.union gf (ISet.diff out_f kill.(b)) in
      let or_, of_ = live_in.(b) in
      if not (ISet.equal nr or_ && ISet.equal nf of_) then begin
        live_in.(b) <- (nr, nf);
        changed := true
      end
    done
  done;
  fun b ->
    List.fold_left
      (fun (r, f) s ->
        let sr, sf = live_in.(s) in
        (ISet.union r sr, ISet.union f sf))
      (ISet.empty, ISet.empty) (IR.succs t b)

(* ---- pass: dead-code elimination ---- *)

(* ops whose removal could change behaviour even when the defs are
   dead: memory access can segfault, fdiv/fsqrt/dpadd can fault into
   the CEH path *)
let never_dead = function
  | Ld | Gather | Sample | Fdiv | Fsqrt | Dpadd -> true
  | _ -> false

let dce t =
  let live_out = liveness t in
  let changed = ref false in
  Array.iteri
    (fun bi b ->
      let tr, tf = IR.term_uses t bi in
      let lr, lf = live_out bi in
      let live_r = ref (ISet.union lr (ISet.of_list tr)) in
      let live_f = ref (ISet.union lf (ISet.of_list tf)) in
      let body =
        List.fold_left
          (fun acc i ->
            let du = X3k_flow.def_use i in
            let has_defs =
              du.X3k_flow.reg_defs <> [] || du.X3k_flow.flag_defs <> []
            in
            let dead =
              (not (X3k_flow.has_side_effect i))
              && (not (never_dead i.op))
              && (has_defs || i.op = Nop)
              && List.for_all
                   (fun r -> not (ISet.mem r !live_r))
                   du.X3k_flow.reg_defs
              && List.for_all
                   (fun f -> not (ISet.mem f !live_f))
                   du.X3k_flow.flag_defs
            in
            if dead then begin
              changed := true;
              acc
            end
            else begin
              (match flag_kill i with
              | Some f -> live_f := ISet.remove f !live_f
              | None -> ());
              let ur, uf = instr_uses du in
              live_r := ISet.union !live_r ur;
              live_f := ISet.union !live_f uf;
              i :: acc
            end)
          [] (List.rev b.IR.body)
      in
      b.IR.body <- body)
    t.IR.blocks;
  !changed

(* ---- layout surgery ---- *)

let insert_block t idx blk =
  IR.retarget t (fun g -> if g >= idx then g + 1 else g);
  let nb = IR.num_blocks t in
  let arr = Array.make (nb + 1) blk in
  Array.blit t.IR.blocks 0 arr 0 idx;
  Array.blit t.IR.blocks idx arr (idx + 1) (nb - idx);
  t.IR.blocks <- arr

(* ---- pass: loop-invariant code motion ---- *)

(* Hoisting is busy-safe by construction: a candidate's block must
   dominate the latch and every exit source, so it runs at least once
   per loop entry; the preheader runs exactly once per entry. *)
let licm_candidates t g (l : Cfg.loop) =
  match l.Cfg.back_srcs with
  | [ latch ] ->
    (* fall-through back edge into the header would make preheader
       insertion ambiguous; natural loops never produce one, but stay
       defensive *)
    let fall_back_edge =
      l.Cfg.header > 0
      && l.Cfg.body.(l.Cfg.header - 1)
      &&
      match t.IR.blocks.(l.Cfg.header - 1).IR.term with
      | IR.Fall | IR.Cond _ -> true
      | IR.Goto _ | IR.Stop _ -> false
    in
    if fall_back_edge then []
    else begin
      (* defs and uses inside the loop, with the block (and body index)
         of every def/use *)
      let reg_defs = Hashtbl.create 16 and flag_defs = Hashtbl.create 16 in
      let reg_uses = Hashtbl.create 16 and flag_uses = Hashtbl.create 16 in
      let note tbl k site = Hashtbl.replace tbl k (site :: (try Hashtbl.find tbl k with Not_found -> [])) in
      List.iter
        (fun b ->
          List.iteri
            (fun idx i ->
              let du = X3k_flow.def_use i in
              List.iter (fun r -> note reg_defs r (b, idx)) du.X3k_flow.reg_defs;
              List.iter (fun f -> note flag_defs f (b, idx)) du.X3k_flow.flag_defs;
              List.iter (fun r -> note reg_uses r (b, idx)) du.X3k_flow.reg_uses;
              List.iter (fun f -> note flag_uses f (b, idx)) du.X3k_flow.flag_uses)
            t.IR.blocks.(b).IR.body;
          let tr, tf = IR.term_uses t b in
          let term_idx = List.length t.IR.blocks.(b).IR.body in
          List.iter (fun r -> note reg_uses r (b, term_idx)) tr;
          List.iter (fun f -> note flag_uses f (b, term_idx)) tf)
        l.Cfg.nodes;
      let defs tbl k = try Hashtbl.find tbl k with Not_found -> [] in
      let invariant_operand o =
        match o with
        | Imm _ | Sreg _ -> true
        | Reg r -> defs reg_defs r = []
        | Flag f -> defs flag_defs f = []
        | Range _ | Surf _ | Surf2d _ | Remote _ -> false
      in
      let dominates_site b idx (ub, uidx) =
        if ub = b then idx < uidx else Cfg.dominates g b ub
      in
      let cands = ref [] in
      List.iter
        (fun b ->
          List.iteri
            (fun idx i ->
              let ok =
                i.pred = None && cse_op i.op
                && (match i.op with Mac | Fmac -> false | _ -> true)
                && (match i.dst with
                   | Some (Reg _) | Some (Flag _) -> true
                   | _ -> false)
                && List.for_all invariant_operand i.srcs
                && Cfg.dominates g b latch
                && List.for_all
                     (fun (e, _) -> Cfg.dominates g b e)
                     l.Cfg.exits
                &&
                let du = X3k_flow.def_use i in
                let single_def tbl k =
                  match defs tbl k with [ (db, di) ] -> db = b && di = idx | _ -> false
                in
                List.for_all (fun r -> single_def reg_defs r) du.X3k_flow.reg_defs
                && List.for_all (fun f -> single_def flag_defs f) du.X3k_flow.flag_defs
                && List.for_all
                     (fun r ->
                       List.for_all (dominates_site b idx)
                         (defs reg_uses r))
                     du.X3k_flow.reg_defs
                && List.for_all
                     (fun f ->
                       List.for_all (dominates_site b idx)
                         (defs flag_uses f))
                     du.X3k_flow.flag_defs
              in
              if ok then cands := (b, idx) :: !cands)
            t.IR.blocks.(b).IR.body)
        l.Cfg.nodes;
      List.rev !cands
    end
  | _ -> []

let licm t =
  let changed = ref false in
  let continue_ = ref true in
  let guard = ref 0 in
  while !continue_ && !guard < 64 do
    incr guard;
    continue_ := false;
    let g = IR.cfg t in
    let loops = Cfg.loops g in
    (try
       Array.iter
         (fun l ->
           match licm_candidates t g l with
           | [] -> ()
           | cands ->
             let header = l.Cfg.header in
             let hoisted =
               List.map
                 (fun (b, idx) -> List.nth t.IR.blocks.(b).IR.body idx)
                 cands
             in
             (* remove (descending index order per block) *)
             List.iter
               (fun (b, idx) ->
                 t.IR.blocks.(b).IR.body <-
                   List.filteri (fun k _ -> k <> idx) t.IR.blocks.(b).IR.body)
               (List.sort (fun (b1, i1) (b2, i2) ->
                    compare (b2, i2) (b1, i1))
                  cands);
             let pre = { IR.body = hoisted; IR.term = IR.Fall } in
             insert_block t header pre;
             (* entry edges: explicit targets from outside the loop
                that now point at the shifted header come back to the
                preheader (back edges keep targeting the header) *)
             Array.iteri
               (fun q blk ->
                 if q <> header then begin
                   let old = if q < header then q else q - 1 in
                   let in_loop =
                     old >= 0
                     && old < Array.length l.Cfg.body
                     && l.Cfg.body.(old)
                   in
                   if not in_loop then
                     match blk.IR.term with
                     | IR.Goto tg when tg = header + 1 ->
                       blk.IR.term <- IR.Goto header
                     | IR.Cond c when c.target = header + 1 ->
                       blk.IR.term <- IR.Cond { c with target = header }
                     | _ -> ()
                 end)
               t.IR.blocks;
             changed := true;
             continue_ := true;
             raise Exit)
         loops
     with Exit -> ())
  done;
  !changed

(* ---- pass: full unrolling of constant-trip innermost loops ---- *)

type uop = K of int | Iv

let unroll_caps_copies = 256
let unroll_caps_loop_instrs = 2048
let unroll_caps_prog_instrs = 4096

let try_unroll t g out_env (l : Cfg.loop) =
  let nodes = l.Cfg.nodes in
  let lo = List.fold_left min max_int nodes in
  let hi = List.fold_left max (-1) nodes in
  let len = hi - lo + 1 in
  let in_loop b = b >= 0 && b < Array.length l.Cfg.body && l.Cfg.body.(b) in
  if List.length nodes <> len || l.Cfg.header <> lo then false
  else
    match l.Cfg.back_srcs with
    | [ latch ] when latch = hi -> (
      let shape =
        match (t.IR.blocks.(lo).IR.term, t.IR.blocks.(hi).IR.term) with
        | _, IR.Cond { br; target } when target = lo ->
          if List.for_all (fun (e, o) -> e = hi && o = hi + 1) l.Cfg.exits
             && l.Cfg.exits <> []
          then Some (`Bottom br)
          else None
        | IR.Cond { br; target = out }, IR.Goto back
          when back = lo && not (in_loop out) ->
          if List.for_all (fun (e, o) -> e = lo && o = out) l.Cfg.exits
             && l.Cfg.exits <> []
          then Some (`Top (br, out))
          else None
        | _ -> None
      in
      match shape with
      | None -> false
      | Some shape -> (
        let br = match shape with `Bottom br | `Top (br, _) -> br in
        match br.srcs with
        | [ Flag bf; Imm _ ] -> (
          (* collect per-reg/flag def sites across the loop *)
          let reg_defs = Hashtbl.create 16 and flag_defs = Hashtbl.create 16 in
          let note tbl k v =
            Hashtbl.replace tbl k (v :: (try Hashtbl.find tbl k with Not_found -> []))
          in
          List.iter
            (fun b ->
              List.iteri
                (fun idx i ->
                  let du = X3k_flow.def_use i in
                  List.iter (fun r -> note reg_defs r (b, idx, i)) du.X3k_flow.reg_defs;
                  List.iter (fun f -> note flag_defs f (b, idx, i)) du.X3k_flow.flag_defs)
                t.IR.blocks.(b).IR.body)
            nodes;
          let defs tbl k = try Hashtbl.find tbl k with Not_found -> [] in
          match defs flag_defs bf with
          | [ (cb, ci, cmp) ] -> (
            let entry_env =
              match
                List.filter (fun p -> not (in_loop p)) g.Cfg.pred.(lo)
              with
              | [] -> IMap.empty
              | p :: rest ->
                List.fold_left
                  (fun acc q -> meet_env acc out_env.(q))
                  out_env.(p) rest
            in
            let cmp_ok =
              (match cmp.op with Cmp _ -> true | _ -> false)
              && cmp.pred = None && cmp.width = 1
              && (match shape with `Top _ -> cb = lo | `Bottom _ -> true)
              && Cfg.dominates g cb latch
            in
            if not cmp_ok then false
            else
              let cond = match cmp.op with Cmp c -> c | _ -> assert false in
              (* classify cmp operands; find the unique IV *)
              let iv = ref None in
              let classify o =
                match o with
                | Imm v -> Some (K (imm_value v))
                | Reg r -> (
                  match defs reg_defs r with
                  | [] -> (
                    match IMap.find_opt r entry_env with
                    | Some (Const (w, v)) when w >= 1 -> Some (K v)
                    | _ -> None)
                  | [ (ab, ai, add) ] -> (
                    let step =
                      if add.op = Add && add.pred = None && add.dtype = DW
                         && add.dst = Some (Reg r)
                      then
                        match add.srcs with
                        | [ Reg r'; Imm s ] when r' = r -> Some (imm_value s)
                        | [ Imm s; Reg r' ] when r' = r -> Some (imm_value s)
                        | _ -> None
                      else None
                    in
                    match step with
                    | Some s when !iv = None && Cfg.dominates g ab latch -> (
                      match IMap.find_opt r entry_env with
                      | Some (Const (w, v0)) when w >= 1 ->
                        iv := Some (ab, ai, s, v0);
                        Some Iv
                      | _ -> None)
                    | _ -> None)
                  | _ -> None)
                | _ -> None
              in
              match cmp.srcs with
              | [ x; y ] -> (
                match (classify x, classify y) with
                | Some cx, Some cy -> (
                  match !iv with
                  | Some (ab, ai, step, v0)
                    when cx = Iv || cy = Iv -> (
                    (* does the add execute before the cmp within one
                       iteration? *)
                    let off =
                      if ab = cb then if ai < ci then Some 1 else Some 0
                      else if Cfg.dominates g ab cb then Some 1
                      else if Cfg.dominates g cb ab then Some 0
                      else None
                    in
                    match off with
                    | None -> false
                    | Some off -> (
                      let ivv = ref v0 and adds = ref 0 in
                      let value_after k =
                        while !adds < k do
                          ivv := Lane.add DW !ivv step;
                          incr adds
                        done;
                        !ivv
                      in
                      let taken_at e =
                        let v = value_after (e - 1 + off) in
                        let ev c = match c with K w -> w | Iv -> v in
                        let r = Lane.compare_lanes cmp.dtype cond (ev cx) (ev cy) in
                        let full = (1 lsl br.width) - 1 in
                        let m = (if r then 1 else 0) land full in
                        match br.op with
                        | Br Any -> m <> 0
                        | Br All -> m = full
                        | Br None_set -> m = 0
                        | _ -> assert false
                      in
                      let copies =
                        match shape with
                        | `Bottom _ ->
                          let rec go e =
                            if e > 4096 then None
                            else if taken_at e then go (e + 1)
                            else Some e
                          in
                          go 1
                        | `Top _ ->
                          let rec go e =
                            if e > 4096 then None
                            else if taken_at e then Some (e - 1)
                            else go (e + 1)
                          in
                          go 1
                      in
                      match copies with
                      | None -> false
                      | Some copies -> (
                        let loop_instrs =
                          List.fold_left
                            (fun acc b ->
                              acc + List.length t.IR.blocks.(b).IR.body + 1)
                            0 nodes
                        in
                        let partial_instrs =
                          match shape with
                          | `Top _ ->
                            List.length t.IR.blocks.(lo).IR.body + 1
                          | `Bottom _ -> 0
                        in
                        let new_total =
                          IR.num_instrs t - loop_instrs
                          + (copies * loop_instrs)
                          + partial_instrs
                        in
                        if copies > unroll_caps_copies
                           || copies * loop_instrs > unroll_caps_loop_instrs
                           || new_total > unroll_caps_prog_instrs
                        then false
                        else begin
                          (* ---- rebuild the block array ---- *)
                          let nb = IR.num_blocks t in
                          let mid_len =
                            (copies * len)
                            + match shape with `Top _ -> 1 | `Bottom _ -> 0
                          in
                          let delta = mid_len - len in
                          let out_map tg =
                            if tg < lo then tg
                            else if tg > hi then tg + delta
                            else lo (* external edges only reach the header *)
                          in
                          let clone_copy c j =
                            let src = t.IR.blocks.(lo + j) in
                            let local tg = lo + (c * len) + (tg - lo) in
                            let term =
                              match src.IR.term with
                              | IR.Cond { target; _ }
                                when (match shape with
                                     | `Bottom _ -> j = len - 1
                                     | `Top _ -> j = 0) ->
                                ignore target;
                                (* resolved test: falls into the next
                                   copy (or the exit block) *)
                                IR.Fall
                              | IR.Goto tg
                                when (match shape with
                                     | `Top _ -> j = len - 1 && tg = lo
                                     | `Bottom _ -> false) ->
                                IR.Fall
                              | IR.Goto tg when in_loop tg -> IR.Goto (local tg)
                              | IR.Cond c2 when in_loop c2.target ->
                                IR.Cond { c2 with target = local c2.target }
                              | IR.Fall -> IR.Fall
                              | other -> other
                            in
                            { IR.body = src.IR.body; IR.term = term }
                          in
                          let middle =
                            Array.init mid_len (fun k ->
                                if k < copies * len then
                                  clone_copy (k / len) (k mod len)
                                else
                                  (* Top shape: trailing partial
                                     iteration = header body + exit *)
                                  match shape with
                                  | `Top (_, out) ->
                                    {
                                      IR.body = t.IR.blocks.(lo).IR.body;
                                      IR.term = IR.Goto (out_map out);
                                    }
                                  | `Bottom _ -> assert false)
                          in
                          let remap_outside blk =
                            match blk.IR.term with
                            | IR.Goto tg -> blk.IR.term <- IR.Goto (out_map tg)
                            | IR.Cond c2 ->
                              blk.IR.term <-
                                IR.Cond { c2 with target = out_map c2.target }
                            | IR.Fall | IR.Stop _ -> ()
                          in
                          let prefix = Array.sub t.IR.blocks 0 lo in
                          let suffix =
                            Array.sub t.IR.blocks (hi + 1) (nb - hi - 1)
                          in
                          Array.iter remap_outside prefix;
                          Array.iter remap_outside suffix;
                          t.IR.blocks <- Array.concat [ prefix; middle; suffix ];
                          true
                        end)))
                  | _ -> false)
                | _ -> false)
              | _ -> false)
          | _ -> false)
        | _ -> false)
      | exception Not_found -> false)
    | _ -> false

let unroll_one t =
  let g, out_env, _ = const_envs t in
  let loops = Cfg.loops g in
  let nl = Array.length loops in
  let has_child = Array.make nl false in
  Array.iter
    (fun l ->
      match l.Cfg.parent with
      | Some p -> has_child.(p) <- true
      | None -> ())
    loops;
  let result = ref false in
  (try
     for li = 0 to nl - 1 do
       if (not has_child.(li)) && try_unroll t g out_env loops.(li) then begin
         result := true;
         raise Exit
       end
     done
   with Exit -> ());
  !result

(* ---- pass: list scheduling within basic blocks ---- *)

let sched_mem_op = function
  | Ld | St | Gather | Scatter | Sample | Fence | Fdiv | Fsqrt | Dpadd -> true
  | _ -> false

let sched_block b =
  let arr = Array.of_list b.IR.body in
  let n = Array.length arr in
  if n > 1 then begin
    let du = Array.map X3k_flow.def_use arr in
    let preds = Array.make n [] and succs = Array.make n [] in
    let add_edge i j w =
      if i >= 0 && i <> j then begin
        preds.(j) <- (i, w) :: preds.(j);
        succs.(i) <- (j, w) :: succs.(i)
      end
    in
    let last_def_reg = Hashtbl.create 32
    and uses_reg = Hashtbl.create 32
    and last_def_flag = Hashtbl.create 8
    and uses_flag = Hashtbl.create 8
    and last_mem = ref (-1) in
    let find tbl k d = try Hashtbl.find tbl k with Not_found -> d in
    for j = 0 to n - 1 do
      let u = du.(j) in
      let raw tbl_def tbl_uses k =
        let ld = find tbl_def k (-1) in
        if ld >= 0 then
          add_edge ld j (X3k_cost.result_latency_cycles arr.(ld));
        Hashtbl.replace tbl_uses k (j :: find tbl_uses k [])
      in
      List.iter (fun r -> raw last_def_reg uses_reg r) u.X3k_flow.reg_uses;
      List.iter (fun f -> raw last_def_flag uses_flag f) u.X3k_flow.flag_uses;
      let def tbl_def tbl_uses k =
        let ld = find tbl_def k (-1) in
        add_edge ld j 0;
        List.iter (fun i -> add_edge i j 0) (find tbl_uses k []);
        Hashtbl.replace tbl_def k j;
        Hashtbl.replace tbl_uses k []
      in
      List.iter (fun r -> def last_def_reg uses_reg r) u.X3k_flow.reg_defs;
      List.iter (fun f -> def last_def_flag uses_flag f) u.X3k_flow.flag_defs;
      if sched_mem_op arr.(j).op then begin
        add_edge !last_mem j 0;
        last_mem := j
      end
    done;
    (* critical-path heights (edges only point forward) *)
    let height = Array.make n 0 in
    for j = n - 1 downto 0 do
      let h =
        List.fold_left (fun acc (s, w) -> max acc (w + height.(s))) 0 succs.(j)
      in
      height.(j) <- h + X3k_cost.issue_cycles arr.(j)
    done;
    let indeg = Array.make n 0 in
    Array.iteri (fun j ps -> indeg.(j) <- List.length ps) preds;
    let start = Array.make n 0 in
    let scheduled = Array.make n false in
    let order = ref [] in
    let now = ref 0 in
    for _ = 1 to n do
      (* among dependency-ready instrs pick min stall, then max height,
         then lowest original index — fully deterministic *)
      let best = ref (-1) and best_key = ref (max_int, max_int, max_int) in
      for j = 0 to n - 1 do
        if (not scheduled.(j)) && indeg.(j) = 0 then begin
          let avail =
            List.fold_left
              (fun acc (i, w) -> max acc (start.(i) + w))
              0 preds.(j)
          in
          let stall = max 0 (avail - !now) in
          let key = (stall, -height.(j), j) in
          if key < !best_key then begin
            best := j;
            best_key := key
          end
        end
      done;
      let j = !best in
      assert (j >= 0);
      let avail =
        List.fold_left (fun acc (i, w) -> max acc (start.(i) + w)) 0 preds.(j)
      in
      start.(j) <- max !now avail;
      now := start.(j) + X3k_cost.issue_cycles arr.(j);
      scheduled.(j) <- true;
      List.iter (fun (s, _) -> indeg.(s) <- indeg.(s) - 1) succs.(j);
      order := j :: !order
    done;
    b.IR.body <- List.rev_map (fun j -> arr.(j)) !order
  end

let sched t = Array.iter sched_block t.IR.blocks

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let o1_round t =
  let c = ref false in
  if IR.drop_unreachable t then c := true;
  if fold_prop t then c := true;
  if strength t then c := true;
  if cse t then c := true;
  if dce t then c := true;
  !c

let run_o1 t =
  let rounds = ref 0 in
  while o1_round t && !rounds < 8 do
    incr rounds
  done

let run_o2 t =
  run_o1 t;
  ignore (licm t);
  let rounds = ref 0 in
  while unroll_one t && !rounds < 24 do
    incr rounds;
    run_o1 t;
    ignore (licm t)
  done;
  run_o1 t;
  sched t

let optimize level p =
  match level with
  | O0 -> p
  | O1 | O2 -> (
    try
      let t = IR.build p in
      (match level with
      | O1 -> run_o1 t
      | O2 -> run_o2 t
      | O0 -> assert false);
      let q = IR.linearize t in
      (* the optimizer must never emit a structurally invalid program;
         if it somehow would, ship the original *)
      match X3k_check.check q with Ok q -> q | Error _ -> p
    with IR.Unsupported _ -> p)

type pass = Constprop | Strength | Cse | Dce | Licm | Unroll | Sched

let pass_name = function
  | Constprop -> "constprop"
  | Strength -> "strength"
  | Cse -> "cse"
  | Dce -> "dce"
  | Licm -> "licm"
  | Unroll -> "unroll"
  | Sched -> "sched"

let run_pass pass p =
  try
    let t = IR.build p in
    (match pass with
    | Constprop -> ignore (fold_prop t)
    | Strength -> ignore (strength t)
    | Cse -> ignore (cse t)
    | Dce -> ignore (dce t)
    | Licm -> ignore (licm t)
    | Unroll -> ignore (unroll_one t)
    | Sched -> sched t);
    let q = IR.linearize t in
    match X3k_check.check q with Ok q -> q | Error _ -> p
  with IR.Unsupported _ -> p

(* ------------------------------------------------------------------ *)
(* Inspection: block costs and side-by-side diff reports               *)
(* ------------------------------------------------------------------ *)

(* Tolerant block split (never bails): leaders at entry, branch
   targets and post-terminator positions. *)
let block_costs (p : program) =
  let n = Array.length p.instrs in
  if n = 0 then []
  else begin
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i ins ->
        (match X3k_flow.branch_target ins with
        | Some tg when tg >= 0 && tg < n -> leader.(tg) <- true
        | _ -> ());
        match ins.op with
        | Jmp | Br _ | End | Spawn ->
          if i + 1 < n then leader.(i + 1) <- true
        | _ -> ())
      p.instrs;
    let blocks = ref [] in
    let start = ref 0 in
    for i = 1 to n do
      if i = n || leader.(i) then begin
        let len = i - !start in
        let cost = ref 0 in
        for k = !start to i - 1 do
          cost := !cost + X3k_cost.worst_retire_cycles p.instrs.(k)
        done;
        blocks := (!start, len, !cost) :: !blocks;
        start := i
      end
    done;
    List.rev !blocks
  end

let total_worst_retire p =
  Array.fold_left (fun acc i -> acc + X3k_cost.worst_retire_cycles i) 0 p.instrs

let render_blocks p =
  List.concat_map
    (fun (start, len, cost) ->
      Printf.sprintf "@%03d  (%d instrs, %d worst-retire cycles)" start len
        cost
      :: List.init len (fun k ->
             Format.asprintf "  %03d %a" (start + k)
               (pp_instr ~surfaces:p.surfaces)
               p.instrs.(start + k)))
    (block_costs p)

let diff_report ~original ~optimized =
  let w = 46 in
  let pad s =
    let s = if String.length s > w then String.sub s 0 w else s in
    s ^ String.make (w - String.length s) ' '
  in
  let l = render_blocks original and r = render_blocks optimized in
  let rec zip acc l r =
    match (l, r) with
    | [], [] -> List.rev acc
    | x :: l, [] -> zip ((pad x ^ " |") :: acc) l []
    | [], y :: r -> zip ((pad "" ^ " | " ^ y) :: acc) [] r
    | x :: l, y :: r -> zip ((pad x ^ " | " ^ y) :: acc) l r
  in
  let co = total_worst_retire original and cq = total_worst_retire optimized in
  let header =
    [
      Printf.sprintf "%s: %d -> %d instrs, %d -> %d static worst-retire cycles"
        original.name
        (Array.length original.instrs)
        (Array.length optimized.instrs)
        co cq;
      Printf.sprintf "%s | %s" (pad "-- original --") "-- optimized --";
    ]
  in
  String.concat "\n" (header @ zip [] l r) ^ "\n"

(* source lines still present in a program (for lint's fixed-by-opt
   annotation: a dead store whose line vanished at -O1 was eliminated) *)
let surviving_lines p =
  Array.fold_left (fun s i -> ISet.add i.line s) ISet.empty p.instrs

let line_survives p line = ISet.mem line (surviving_lines p)
