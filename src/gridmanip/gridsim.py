"""Deterministic 2D grid manipulation environment.

Blocks are unit cubes living on a width x height cell grid. A cell holds a
stack of block ids (bottom to top). Three scripted primitives act on the
grid: push slides a whole stack, pick lifts the top block into the gripper,
place deposits the held block. All dynamics are deterministic; randomness
enters only through the seeded initial placement.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_PUSH_DISTANCE = 2
DEFAULT_FAIL_LIMIT = 10


class Primitive(enum.Enum):
    PUSH = "push"
    PICK = "pick"
    PLACE = "place"


# Canonical ordering used for tie-breaking and channel layout.
PRIMITIVE_ORDER = (Primitive.PUSH, Primitive.PICK, Primitive.PLACE)


class TaskKind(enum.Enum):
    CLUTTER_REMOVAL = "clutter_removal"
    BLOCK_STACKING = "block_stacking"
    SCRIPTED_ARRANGEMENT = "scripted_arrangement"


class DoneReason(enum.Enum):
    GOAL = "goal"
    FAIL_STREAK = "fail_streak"
    MAX_STEPS = "max_steps"


class ConfigurationError(ValueError):
    """Task configuration cannot produce a valid workspace."""


class ContractViolation(ValueError):
    """Caller passed a malformed action or workspace."""


@dataclass(frozen=True)
class Action:
    primitive: Primitive
    x: int
    y: int
    theta_index: int
    q_value: float = 0.0


@dataclass
class TaskConfig:
    kind: TaskKind
    n_blocks: int
    width: int = 10
    height: int = 10
    goal_stack_height: int = 0
    allowed_primitives: tuple = PRIMITIVE_ORDER
    max_steps: int = 0          # 0 -> 8 * n_blocks
    push_distance: int = DEFAULT_PUSH_DISTANCE
    fail_limit: int = DEFAULT_FAIL_LIMIT
    rotations: int = 4
    layout: str = ""            # scripted arrangements: digit grid, one char per cell

    def __post_init__(self):
        if isinstance(self.allowed_primitives, (list, set)):
            self.allowed_primitives = tuple(
                p for p in PRIMITIVE_ORDER if p in self.allowed_primitives
            )
        if self.max_steps <= 0:
            self.max_steps = 8 * self.n_blocks

    def validate(self):
        if not self.allowed_primitives:
            raise ConfigurationError("allowed_primitives must be nonempty")
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.rotations < 1:
            raise ConfigurationError("rotation count must be >= 1")
        if self.kind is TaskKind.BLOCK_STACKING:
            if not (2 <= self.goal_stack_height <= self.n_blocks):
                raise ConfigurationError(
                    "goal_stack_height must lie in [2, n_blocks], got "
                    f"{self.goal_stack_height} with n_blocks={self.n_blocks}"
                )
        if self.kind is TaskKind.SCRIPTED_ARRANGEMENT and not self.layout.strip():
            raise ConfigurationError("scripted arrangement requires a layout grid")
        if self.n_blocks > self.width * self.height:
            raise ConfigurationError(
                f"grid {self.width}x{self.height} too small for {self.n_blocks} blocks"
            )


@dataclass
class Workspace:
    width: int
    height: int
    stacks: list                 # stacks[y][x] = list of block ids, bottom -> top
    task: TaskConfig
    rng_seed: int
    gripper: int | None = None
    step_count: int = 0
    failure_streak: int = 0
    removed: list = field(default_factory=list)
    height_norm: int = 1

    def stack_at(self, x, y):
        return self.stacks[y][x]

    def height_grid(self):
        return np.array([[len(stack) for stack in row] for row in self.stacks],
                        dtype=np.float64)

    def max_stack_height(self):
        return max((len(self.stacks[y][x])
                    for y in range(self.height) for x in range(self.width)),
                   default=0)

    def blocks_on_grid(self):
        return sum(len(self.stacks[y][x])
                   for y in range(self.height) for x in range(self.width))


@dataclass(frozen=True)
class Observation:
    """Fixed-order channel stack handed to the learner.

    channels[0] occupancy in {0,1}; channels[1] stack height normalized to
    [0,1]; channels[2] gripper-holding flag broadcast over the grid.
    """
    channels: np.ndarray         # (3, height, width), float64

    @property
    def shape(self):
        return self.channels.shape[1:]


@dataclass(frozen=True)
class StepResult:
    next_observation: Observation
    primitive_success: int
    progress: float
    done: bool
    done_reason: DoneReason | None


def theta_radians(theta_index, rotations):
    return 2.0 * math.pi * theta_index / rotations


def push_direction(theta_index, rotations):
    """Unit cell step for a push along rotation ``theta_index``."""
    theta = theta_radians(theta_index, rotations)
    return int(round(math.cos(theta))), int(round(math.sin(theta)))


def _parse_layout(layout, width, height):
    rows = [line for line in layout.splitlines() if line.strip()]
    if len(rows) != height or any(len(r) != width for r in rows):
        raise ConfigurationError(
            f"layout must be {height} rows of {width} characters"
        )
    heights = np.zeros((height, width), dtype=int)
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch.isdigit():
                heights[y, x] = int(ch)
            elif ch not in ".- ":
                raise ConfigurationError(f"layout character {ch!r} not understood")
    return heights


def reset(task: TaskConfig, seed: int):
    """Build a fresh workspace: n_blocks dropped on distinct random cells.

    Identical (task, seed) pairs produce identical workspaces.
    """
    task.validate()
    rng = np.random.default_rng(seed)
    stacks = [[[] for _ in range(task.width)] for _ in range(task.height)]

    if task.kind is TaskKind.SCRIPTED_ARRANGEMENT:
        heights = _parse_layout(task.layout, task.width, task.height)
        total = int(heights.sum())
        if total == 0:
            raise ConfigurationError("scripted layout places no blocks")
        if task.n_blocks not in (0, total):
            raise ConfigurationError(
                f"layout places {total} blocks but n_blocks={task.n_blocks}"
            )
        task.n_blocks = total
        if task.max_steps <= 0:
            task.max_steps = 8 * total
        next_id = 0
        for y in range(task.height):
            for x in range(task.width):
                for _ in range(heights[y, x]):
                    stacks[y][x].append(next_id)
                    next_id += 1
    else:
        cells = rng.choice(task.width * task.height, size=task.n_blocks, replace=False)
        for block_id, cell in enumerate(cells):
            stacks[int(cell) // task.width][int(cell) % task.width].append(block_id)

    if task.kind is TaskKind.BLOCK_STACKING:
        height_norm = task.goal_stack_height
    else:
        height_norm = max(1, max(len(stacks[y][x])
                                 for y in range(task.height)
                                 for x in range(task.width)))

    ws = Workspace(width=task.width, height=task.height, stacks=stacks,
                   task=task, rng_seed=seed, height_norm=height_norm)
    return ws, render_observation(ws)


def task_progress(ws: Workspace, task: TaskConfig | None = None) -> float:
    """Overall goal progress in [0, 1]."""
    task = task or ws.task
    if task.kind is TaskKind.BLOCK_STACKING:
        return min(1.0, ws.max_stack_height() / task.goal_stack_height)
    return len(ws.removed) / task.n_blocks


def render_observation(ws: Workspace) -> Observation:
    heights = ws.height_grid()
    occupancy = (heights > 0).astype(np.float64)
    norm_height = np.clip(heights / ws.height_norm, 0.0, 1.0)
    holding = np.full_like(occupancy, 1.0 if ws.gripper is not None else 0.0)
    return Observation(channels=np.stack([occupancy, norm_height, holding]))


def _shifted(grid, dx, dy):
    """out[y, x] = grid[y + dy, x + dx], False where that cell is off-grid."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    out[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)] = \
        grid[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)]
    return out


def valid_action_mask(ws: Workspace, primitive: Primitive) -> np.ndarray:
    """Boolean (height, width) grid of poses worth attempting."""
    occupied = ws.height_grid() > 0
    if primitive is Primitive.PICK:
        return occupied
    if primitive is Primitive.PUSH:
        # An occupied cell with a free on-grid neighbour along a push direction.
        free = ~occupied
        dirs = {push_direction(r, ws.task.rotations) for r in range(ws.task.rotations)}
        reachable = np.zeros_like(occupied)
        for dx, dy in dirs:
            reachable |= _shifted(free, dx, dy)
        return occupied & reachable
    # Place: on or adjacent to an occupied cell, only while holding a block.
    mask = np.zeros_like(occupied)
    if ws.gripper is not None:
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                mask |= _shifted(occupied, dx, dy)
    return mask


def _execute_push(ws, action):
    stack = ws.stack_at(action.x, action.y)
    if not stack:
        return 0
    dx, dy = push_direction(action.theta_index, ws.task.rotations)
    cx, cy = action.x, action.y
    moved = 0
    for _ in range(ws.task.push_distance):
        nx, ny = cx + dx, cy + dy
        if not (0 <= nx < ws.width and 0 <= ny < ws.height):
            break
        if ws.stack_at(nx, ny):
            break
        cx, cy = nx, ny
        moved += 1
    if moved == 0:
        return 0
    ws.stacks[cy][cx] = stack
    ws.stacks[action.y][action.x] = []
    return 1


def _execute_pick(ws, action):
    stack = ws.stack_at(action.x, action.y)
    if ws.gripper is not None or not stack:
        return 0
    block = stack.pop()
    if ws.task.kind is TaskKind.BLOCK_STACKING:
        ws.gripper = block
    else:
        # Removal tasks: a picked block leaves the scene entirely.
        ws.removed.append(block)
    return 1


def _execute_place(ws, action):
    if ws.gripper is None:
        return 0
    prev_max = ws.max_stack_height()
    stack = ws.stack_at(action.x, action.y)
    stack.append(ws.gripper)
    ws.gripper = None
    # Successful only if the new stack tops the previous global maximum.
    return 1 if len(stack) > prev_max else 0


def step(ws: Workspace, action: Action) -> StepResult:
    """Execute one primitive, mutating the workspace in place."""
    task = ws.task
    if action.primitive not in task.allowed_primitives:
        raise ContractViolation(f"{action.primitive} not allowed for this task")
    if not (0 <= action.x < ws.width and 0 <= action.y < ws.height):
        raise ContractViolation(f"pose ({action.x},{action.y}) outside grid")
    if not (0 <= action.theta_index < task.rotations):
        raise ContractViolation(f"theta_index {action.theta_index} out of range")

    if action.primitive is Primitive.PUSH:
        success = _execute_push(ws, action)
    elif action.primitive is Primitive.PICK:
        success = _execute_pick(ws, action)
    else:
        success = _execute_place(ws, action)

    ws.step_count += 1
    if success:
        ws.failure_streak = 0
    else:
        ws.failure_streak += 1

    progress = task_progress(ws)
    done = False
    reason = None
    if progress >= 1.0:
        done, reason = True, DoneReason.GOAL
    elif ws.failure_streak >= task.fail_limit:
        done, reason = True, DoneReason.FAIL_STREAK
    elif ws.step_count >= task.max_steps:
        done, reason = True, DoneReason.MAX_STEPS

    return StepResult(next_observation=render_observation(ws),
                      primitive_success=success,
                      progress=progress,
                      done=done,
                      done_reason=reason)
