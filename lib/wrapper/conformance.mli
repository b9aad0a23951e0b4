(** The NFS conformance wrapper (Sections 3.2-3.4 of the paper).

    [make] turns any off-the-shelf file-system implementation (a
    {!Base_fs.Server_intf.t} black box) into a BASE service wrapper that
    behaves exactly according to the common abstract specification
    {!Base_nfs.Abstract_spec}:

    - client-visible file handles are oids; the wrapper translates them to
      the implementation's concrete handles through the conformance rep;
    - oids are assigned deterministically (lowest free index, generation
      incremented);
    - readdir results are sorted lexicographically;
    - timestamps come from the agreed non-deterministic values, never from
      the implementation's clock;
    - [get_obj] implements the abstraction function and [put_objs] one of
      its inverses, using a hidden staging directory for objects that are
      created or evacuated while the concrete state is reshaped;
    - a persistent [<fsid, fileid> -> oid] map supports rebuilding the rep
      after the implementation restarts during proactive recovery (the
      depth-first traversal of Section 3.4). *)

val make :
  ?max_skew_us:int64 ->
  server:Base_fs.Server_intf.t ->
  n_objects:int ->
  unit ->
  Base_core.Service.wrapper
(** [max_skew_us] bounds how far the primary's timestamp proposal may lie
    from a backup's local clock before the backup rejects it (default 5 s,
    covering clock skew plus network delay). *)

(** {1 Exposed for tests} *)
